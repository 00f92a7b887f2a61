package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"cloudmirror/guarantee"
	"cloudmirror/internal/topology"
)

// workloadDef is one entry of BENCHMARK.json's workload list.
type workloadDef struct {
	name, why string
	// run measures the workload sized for a nominal number of seconds.
	run func(seed int64, seconds float64, traced bool) (*result, error)
}

// workloads lists the five workloads. Sizes are operation counts per
// nominal second, calibrated on a 2-core box so that the timed phase
// of a run lasts about --seconds there; a count, unlike a deadline,
// gives every commit the same requests to serve, so decisions can be
// hashed and percentiles compare like with like.
var workloads = []workloadDef{
	{
		name: "http_light",
		why:  "Real bwd over loopback HTTP at 10% load: placement is cheap, so net/http, JSON and the grant registry are most of a round trip.",
		run: func(seed int64, seconds float64, traced bool) (*result, error) {
			return runHTTP("http_light", httpSizes(seconds, false), seed, false, traced)
		},
	},
	{
		name: "http_durable",
		why:  "The same request stream against bwd -wal-dir, then kill -9 and restart: isolates what the write-ahead log, fsync and recovery cost.",
		run: func(seed int64, seconds float64, traced bool) (*result, error) {
			return runHTTP("http_durable", httpSizes(seconds, true), seed, true, traced)
		},
	},
	{
		name: "lib_packed",
		why:  "In-process Service at 110% load: a full datacenter where placement search and the exhaustive reject path do nearly all the work.",
		run: func(seed int64, seconds float64, traced bool) (*result, error) {
			return runLib("lib_packed", libSizes(seconds), seed, traced)
		},
	},
	{
		name: "enforce_steady",
		why:  "512-tenant control loop where 1% of tenants redeclare demand per period: the incremental stepper and the O(fleet) floor under it.",
		run: func(seed int64, seconds float64, traced bool) (*result, error) {
			return runEnforce("enforce_steady", sizeEnforce(seconds, false), seed, traced)
		},
	},
	{
		name: "enforce_storm",
		why:  "Same fleet with every tenant redeclaring each period and membership churning: full GP/RA/max-min solves and component rebuilds.",
		run: func(seed int64, seconds float64, traced bool) (*result, error) {
			return runEnforce("enforce_storm", sizeEnforce(seconds, true), seed, traced)
		},
	},
}

// admissionSizes sizes an admission workload.
type admissionSizes struct {
	gen         genSpec
	mix         mix // what the reference work is weighted by
	setups      int // set-ups per run; setup_s is their median
	crashCycles int // kill -9 / restart cycles (http_durable)
}

// httpSizes is the stream http_light and http_durable share: load
// 0.10, Bmax 800, one tenant in five resizes once.
func httpSizes(seconds float64, durable bool) admissionSizes {
	sz := admissionSizes{
		gen: genSpec{
			load: 0.10, bmax: 800, resizeProb: 0.2,
			arrivals: 300 + int(450*seconds), warm: 300, bodies: true,
		},
		mix:         mix{cache: 0.30, wakeup: 0.70},
		setups:      3,
		crashCycles: 5,
	}
	if durable {
		sz.mix = mix{compute: 0.05, cache: 0.15, wakeup: 0.65, fsync: 0.15}
	}
	return sz
}

// libSizes is lib_packed's stream: load 1.10, Bmax 1200, no resizes.
// The warm-up is five mean lifetimes of arrivals: the ledger's
// fragmentation, and with it the cost of a rejection, takes that long
// to stop drifting after the datacenter first fills.
func libSizes(seconds float64) admissionSizes {
	return admissionSizes{
		gen: genSpec{
			load: 1.10, bmax: 1200,
			arrivals: 5000 + int(4500*seconds), warm: 5000,
		},
		mix:    mix{compute: 0.45, cache: 0.55},
		setups: 1,
	}
}

// newService builds the controller the way bwd does by default:
// PaperSpec, one shard, locked admission, algorithm cm.
func newService(opts ...guarantee.Option) (guarantee.Service, error) {
	return guarantee.New(topology.PaperSpec(), opts...)
}

// tallyOf reads a Service's own account of a run.
func tallyOf(svc guarantee.Service) serverTally {
	st := svc.Stats()
	s := serverTally{admitted: st.Admitted, rejected: st.Rejected, failed: st.Failed, released: st.Released, resized: st.Resized}
	for _, ld := range svc.Loads() {
		s.slotsUsed += ld.SlotsUsed
		s.reservedMbps += ld.ReservedMbps
		s.tenants += ld.Tenants
	}
	return s
}

// finish folds a measured replay into the result: failures, the
// transcript and the caller-observed latencies; for an untraced run
// also the end-to-end metrics.
func (r *result) finish(run *admissionRun, setups *setupTimes, ref *reference, rssMB float64) {
	r.attempted += run.attempted
	r.merge(run.failures)
	r.hash = run.hash
	a := run.admit.sorted()
	clientLatencies(r, run, a)
	r.noteTail("successful admits", a)
	if r.traced {
		return
	}
	r.timings(ref, setups, run.ops, run.wallNS, run.quietNS, percentile(a, 0.5), percentile(run.admitQuiet.sorted(), 0.5))
	r.set("peak_rss_mb", rssMB, 0)
	r.set("admitted_bw_share", run.admittedBW/run.requestedBW, 0)
}

// timings sets the three end-to-end timings of an untraced run, in a
// quiet box's time: ops over the timed phase and the median op, both
// brought there segment by segment, and the median set-up. The
// wall-clock values go into the notes.
func (r *result) timings(ref *reference, setups *setupTimes, ops int, wallNS int64, quietNS float64, wallP50, quietP50 int64) {
	r.check(ref.failure())
	r.set("setup_s", median(setups.quiet(ref)), len(setups.wall))
	r.set("ops_per_s", float64(ops)/(quietNS/1e9), ops)
	r.set("op_ms_p50", ms(quietP50), ops)
	r.notes = append(r.notes, ref.note(),
		fmt.Sprintf("wall-clock: setup_s %.4f, ops_per_s %.4f, op_ms_p50 %.4f; slowdown of the timed phase %.3f",
			median(setups.wall), float64(ops)/(float64(wallNS)/1e9), ms(wallP50), float64(wallNS)/quietNS))
}

// memDelta measures heap allocation over the timed phase.
type memDelta struct{ before, after runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }

func (m *memDelta) report(res *result, ops int) {
	res.set("guarantee.allocs_per_op", float64(m.after.Mallocs-m.before.Mallocs)/float64(ops), 0)
	res.set("guarantee.alloc_bytes_per_op", float64(m.after.TotalAlloc-m.before.TotalAlloc)/float64(ops), 0)
}

// runLib measures an admission stream in process, through the public
// guarantee.Service.
func runLib(name string, sz admissionSizes, seed int64, traced bool) (*result, error) {
	st, err := generate(sz.gen, seed)
	if err != nil {
		return nil, err
	}
	res := newResult(name, traced)
	var ref *reference
	if !traced {
		if ref, err = newReference(sz.mix); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	var setups setupTimes
	pass := func(tr *tracer) (*admissionRun, error) {
		clock := ref.startSetup()
		var opts []guarantee.Option
		if tr != nil {
			opts = append(opts, withTracedPlacer(tr))
		}
		svc, err := newService(opts...)
		if err != nil {
			return nil, err
		}
		tree := svc.Topology(0)
		if tr != nil {
			svc = tracedService{svc, tr}
		}
		var mem memDelta
		run := replay(st, newLibTarget(svc, st.arrivals), hooks{
			tr: tr, ref: ref,
			timedStart: func() {
				clock.stop(&setups)
				mem.start()
				tr.enable(true)
			},
			timedEnd: func() error {
				tr.enable(false)
				mem.stop()
				return nil
			},
			checkpoint: func() error { return checkLedger(tree) },
		})
		run.check(checkTally(run.tally, tallyOf(svc), true))
		if tr != nil {
			mem.report(res, run.ops)
		}
		return run, nil
	}

	// Set-ups beyond the first only fill a fresh service and drop it.
	for k := 1; k < sz.setups; k++ {
		clock := ref.startSetup()
		svc, err := newService()
		if err != nil {
			return nil, err
		}
		replay(st.warmOnly(), newLibTarget(svc, st.arrivals), hooks{})
		clock.stop(&setups)
	}

	run, err := pass(nil)
	if err != nil {
		return nil, err
	}
	if traced {
		tr := newTracer()
		untraced := run
		if run, err = pass(tr); err != nil {
			return nil, err
		}
		return res, finishTraced(res, st, seed, tr, run, untraced)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	res.finish(run, &setups, ref, rss)
	return res, nil
}

// finishTraced closes a traced admission run: check 1 against the
// untraced reference pass, the per-layer metrics, the probes, and the
// span file.
func finishTraced(res *result, st *stream, seed int64, tr *tracer, run, ref *admissionRun) error {
	run.check(checkTranscript("traced", run.hash, ref.hash))
	run.attempted += ref.attempted
	run.merge(ref.failures)
	admissionLayers(res, tr.spans, run)
	res.set("bench.trace_overhead_share", float64(run.wallNS)/float64(ref.wallNS)-1, 0)
	res.finish(run, nil, nil, 0)
	if err := admissionProbes(res, st); err != nil {
		return err
	}
	return saveSpans(res.workload, seed, tr.spans)
}

// saveSpans writes a traced run's spans under workDir.
func saveSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(workDir(), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	return nil
}
