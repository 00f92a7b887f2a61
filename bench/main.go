// Command bench is the repository's benchmark: five workloads that
// together cover the controller from the HTTP front door (cmd/bwd) to
// the enforcement control period, each measured end to end with one
// closed-loop caller and, in a separate traced run, layer by layer
// from outside.
//
//	bash bench/run.sh                             every workload, every end-to-end metric
//	bash bench/run.sh -traced                     ... each followed by its traced run
//	bash bench/run.sh --workload lib_packed --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh -runs 10 -out A.json        ten seeds of each, saved
//	bash bench/run.sh -compare A.json B.json      two saved sets against the bounds
//
// A run of one workload ends with one JSON line: correct, attempted,
// failed and the metrics BENCHMARK.json lists (end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1). Every run checks its
// outputs and exits non-zero when a check fails. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the contract's JSON line (default: all, as child processes)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "nominal length of the timed phase; scales the operation counts")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs traced and reports the per-layer metrics")
		traced  = flag.Bool("traced", false, "without -workload: also run every workload traced")
		runs    = flag.Int("runs", 1, "without -workload: runs of each workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "without -workload: write the results as JSON to this file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments, against the bounds")
		echo    = flag.Bool("echo", false, "serve the reference work's echo process (started by a workload, not by hand)")
	)
	flag.Parse()
	if *echo {
		os.Exit(echoMain())
	}

	// Children and scratch directories are released on every way out.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		releaseAll()
		os.Exit(130)
	}()
	code := 0
	switch {
	case *compare:
		code = compareMain(flag.Args())
	case *name != "":
		code = runOne(*name, *seed, *seconds, *trace == 1)
	default:
		code = runAll(*seed, *seconds, *traced, *runs, *out)
	}
	releaseAll()
	os.Exit(code)
}

// procs is the GOMAXPROCS of every measuring process: the one running
// a workload, its bwd children and the reference work's echo process,
// all bound to one CPU (pinToOneCPU). One closed-loop caller is one core
// of work, and on a shared 2-vCPU box the second core is not reliably
// there: when a neighbour holds it, a Go process that believes it has
// two (GC workers, the dataplane's parallel solves) waits for the
// straggler. Back to back, the same control period took 27-31 ms with
// two Ps and 18-22 ms with one. Scaling over cores is not measured
// here in any case (README).
const procs = 1

// runOne runs one workload in this process and prints its metrics and
// the contract's last line.
func runOne(name string, seed int64, seconds float64, traced bool) int {
	pinToOneCPU()
	runtime.GOMAXPROCS(procs)
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		res, err := w.run(seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		mode := "untraced"
		if traced {
			mode = "traced"
		}
		fmt.Printf("%s seed %d, %s, %g nominal seconds: %d attempted, %d failed\n",
			name, seed, mode, seconds, res.attempted, res.failed)
		fmt.Printf("transcript: %s\n", res.hash)
		res.print(os.Stdout)
		line, err := res.line()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(line)
		if res.failed > 0 {
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
	return 2
}
