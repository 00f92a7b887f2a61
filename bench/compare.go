package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment records where a set of runs was taken.
type environment struct {
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Counts     map[string]string `json:"op_counts"`
	WALFS      string            `json:"wal_filesystem"`
}

// savedRun is one child run as -out stores it.
type savedRun struct {
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
	Transcript string `json:"transcript"`
	contractLine
}

// runSet is the -out file: one or more runs of every workload, on
// consecutive seeds.
type runSet struct {
	Environment environment `json:"environment"`
	Runs        []savedRun  `json:"runs"`
}

// describeEnvironment fills the environment block.
func describeEnvironment(seed int64, seconds float64) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Counts:     make(map[string]string),
		WALFS:      "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	h, l := httpSizes(seconds, true), libSizes(seconds)
	env.Counts["http_light"] = fmt.Sprintf("%d arrivals (%d warm-up)", h.gen.arrivals, h.gen.warm)
	env.Counts["http_durable"] = fmt.Sprintf("%d arrivals (%d warm-up), %d crash cycles", h.gen.arrivals, h.gen.warm, h.crashCycles)
	env.Counts["lib_packed"] = fmt.Sprintf("%d arrivals (%d warm-up)", l.gen.arrivals, l.gen.warm)
	for _, storm := range []bool{false, true} {
		e := sizeEnforce(seconds, storm)
		name := "enforce_steady"
		if storm {
			name = "enforce_storm"
		}
		env.Counts[name] = fmt.Sprintf("%d tenants, %d periods (%d warm-up), %d redeclare per period", e.tenants, e.periods, e.warmPeriods, e.dirty)
	}
	if err := os.MkdirAll(workDir(), 0o755); err == nil {
		var st syscall.Statfs_t
		if syscall.Statfs(workDir(), &st) == nil {
			names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
			if n, ok := names[int64(st.Type)]; ok {
				env.WALFS = n
			} else {
				env.WALFS = fmt.Sprintf("0x%x", st.Type)
			}
		}
	}
	return env
}

// runChild runs one workload in a fresh process, passing its output
// through, and returns the run it reported.
func runChild(self, name string, seed int64, seconds float64, traced bool) (savedRun, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	run := savedRun{Workload: name, Traced: traced}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "transcript: "); ok {
			run.Transcript = rest
		}
		if last != "" {
			fmt.Println(last)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &run.contractLine); err != nil {
		fmt.Println(last)
		if runErr != nil {
			return run, fmt.Errorf("%s: %w", name, runErr)
		}
		return run, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return run, nil
}

// runAll runs every workload, each in a fresh child process, and
// reports whether every check passed. With traced it also runs each
// workload traced and compares the two transcripts (check 1).
func runAll(seed int64, seconds float64, traced bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	set := runSet{Environment: describeEnvironment(seed, seconds)}
	env, _ := json.Marshal(set.Environment)
	fmt.Printf("environment: %s\n", env)
	code := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			// Each run takes another seed, as the acceptance rule does.
			seed := seed + int64(i)
			plain, err := runChild(self, w.name, seed, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			set.Runs = append(set.Runs, plain)
			if !plain.Correct {
				code = 1
			}
			if !traced {
				continue
			}
			tr, err := runChild(self, w.name, seed, seconds, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			set.Runs = append(set.Runs, tr)
			if !tr.Correct {
				code = 1
			}
			if err := checkTranscript(w.name+" traced", tr.Transcript, plain.Transcript); err != nil {
				fmt.Printf("  FAILED: %v\n", err)
				code = 1
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", out, err)
			return 1
		}
	}
	if code == 0 {
		fmt.Println("all checks passed")
	} else {
		fmt.Println("CHECKS FAILED")
	}
	return code
}

// loadSet reads an -out file.
func loadSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects a metric's values over a set's untraced runs of one
// workload.
func (s *runSet) values(workload, name string) []float64 {
	var vals []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[name]; ok {
				vals = append(vals, m.Value)
			}
		}
	}
	return vals
}

// compareSets prints, per workload and end-to-end metric, both medians
// with their run-to-run spread (quartile distance over median, the
// acceptance rule's measure), how much worse B is than A, and the
// bound; it returns how many pairings are outside their bound.
func compareSets(w io.Writer, a, b *runSet) int {
	outside := 0
	fmt.Fprintf(w, "%-15s %-18s %12s %7s %12s %7s %8s %6s\n", "workload", "metric", "A median", "spread", "B median", "spread", "B worse", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.name), b.values(wl.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-18s missing\n", wl.name, d.name)
				outside++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > d.bound {
				flag = "  OUTSIDE"
				outside++
			}
			fmt.Fprintf(w, "%-15s %-18s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%%s\n",
				wl.name, d.name, ma, 100*spreadShare(va), mb, 100*spreadShare(vb), 100*worse, 100*d.bound, flag)
		}
	}
	return outside
}

// compareMain is `bench -compare A.json B.json`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b *runSet
		if b, err = loadSet(args[1]); err == nil {
			if n := compareSets(os.Stdout, a, b); n > 0 {
				fmt.Printf("%d pairings outside their bound\n", n)
				return 1
			}
			fmt.Println("every pairing within its bound")
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}
