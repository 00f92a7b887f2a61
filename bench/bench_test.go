package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"cloudmirror/internal/topology"
)

// The reference work's echo process is this binary run with -echo.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-echo" {
		os.Exit(echoMain())
	}
	os.Exit(m.Run())
}

func smallGen(bodies bool) genSpec {
	return genSpec{load: 0.10, bmax: 800, resizeProb: 0.3, arrivals: 80, warm: 20, bodies: bodies}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := generate(smallGen(true), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(smallGen(true), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() != b.digest() {
		t.Fatal("same seed gave different streams")
	}
	for i := range a.ops {
		if !bytes.Equal(a.ops[i].body, b.ops[i].body) {
			t.Fatalf("op %d: same seed gave different bodies", i)
		}
	}
	c, err := generate(smallGen(true), 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() == c.digest() {
		t.Fatal("different seeds gave the same stream")
	}
	if a.warm <= 0 || a.warm >= a.tail || a.tail > len(a.ops) {
		t.Fatalf("phase boundaries warm=%d tail=%d of %d ops", a.warm, a.tail, len(a.ops))
	}
	kinds := map[opKind]int{}
	for _, o := range a.ops {
		kinds[o.kind]++
	}
	if kinds[opAdmit] != 80 || kinds[opRelease] != 80 || kinds[opResize] == 0 {
		t.Fatalf("op mix %v", kinds)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := samples{5, 1, 4, 2, 3}.sorted()
	if percentile(s, 0.5) != 3 || percentile(s, 1) != 5 || percentile(s, 0.2) != 1 || percentile(s, 0.21) != 2 {
		t.Errorf("percentile over %v", s)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	if got := spreadShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spreadShare = %g", got)
	}
}

// A reading twice as slow on a resource slows a workload by that
// resource's share of its mix; no reference means wall-clock time.
func TestReference(t *testing.T) {
	m := mix{compute: 0.5, cache: 0.3, wakeup: 0.2}
	if got := m.slowdown(quiet); math.Abs(got-1) > 1e-12 {
		t.Errorf("slowdown on a quiet box = %g", got)
	}
	slow := quiet
	slow.cache *= 2
	slow.fsync *= 10 // not in the mix
	if got, want := m.slowdown(slow), math.Pow(1.3, compounding); math.Abs(got-want) > 1e-12 {
		t.Errorf("slowdown with the cache twice as slow = %g, want %g", got, want)
	}
	var none *reference
	if none.read() != 0 || none.slowdown(0, 1) != 1 || none.failure() != nil {
		t.Error("a nil reference does not read as wall-clock")
	}
	none.close()
	var plain setupTimes
	none.startSetup().stop(&plain)
	if q := plain.quiet(none); len(q) != 1 || q[0] != plain.wall[0] {
		t.Errorf("set-up without a reference: %v quiet-box s for %v wall-clock s", q, plain.wall)
	}

	// Six readings count towards an interval, so one that caught a
	// neighbour's burst does not move it, and a phase change does.
	twice := quiet
	twice.compute, twice.cache, twice.wakeup = 2*quiet.compute, 2*quiet.cache, 2*quiet.wakeup
	burst := quiet
	burst.compute *= 9
	ref := &reference{mix: m, readings: []reading{quiet, quiet, burst, quiet, quiet, twice, twice, twice, twice, twice}}
	if got := ref.slowdown(2, 3); got != 1 {
		t.Errorf("slowdown next to a burst = %g, want 1", got)
	}
	if got, want := ref.slowdown(7, 8), math.Pow(2, compounding); math.Abs(got-want) > 1e-12 {
		t.Errorf("slowdown in the slow phase = %g, want %g", got, want)
	}

	// A phase of two segments as the box turns slow: segment 0 lies
	// between readings 3 and 4 (of 1..6 half are slow: between the
	// two), segment 1 between 4 and 5 (of 2..7 four are slow: slow).
	ref.readings = []reading{quiet, quiet, quiet, quiet, twice, twice, twice, twice}
	phase := &timedPhase{ref: ref, first: 3, walls: []int64{100, 300}, marks: []int{1, 3}}
	ns, lat := phase.quiet(samples{10, 20, 30})
	s1 := math.Pow(2, compounding)
	s0 := (1 + s1) / 2
	if want := 100/s0 + 300/s1; math.Abs(ns-want) > 1e-9 || len(lat) != 3 || lat[0] != int64(10/s0) || lat[2] != int64(30/s1) {
		t.Errorf("quiet phase = %g ns (want %g), samples %v", ns, want, lat)
	}

	// 200 ops in 2 s of wall clock that a quiet box does in 1.6 s.
	res := newResult("x", false)
	setups := &setupTimes{wall: []float64{3}, before: []int{4}, after: []int{5}}
	res.timings(ref, setups, 200, 2e9, 1.6e9, 10e6, 8e6)
	if got := res.metrics["ops_per_s"].Value; math.Abs(got-125) > 1e-9 {
		t.Errorf("ops_per_s = %g, want 125", got)
	}
	if got := res.metrics["op_ms_p50"].Value; got != 8 {
		t.Errorf("op_ms_p50 = %g, want the quiet-box 8", got)
	}
	if got, want := res.metrics["setup_s"].Value, 3/math.Pow(2, compounding); math.Abs(got-want) > 1e-12 {
		t.Errorf("setup_s = %g, want %g: a 3 s set-up in the slow phase", got, want)
	}
	ref.err = errors.New("echo process gone")
	res.timings(ref, setups, 200, 2e9, 1.6e9, 10e6, 8e6)
	if res.failed != 1 {
		t.Error("failed reference work did not fail the run")
	}

	// The real thing: readings are positive and a set-up is timed.
	live, err := newReference(mix{compute: 0.5, cache: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer live.close()
	var timed setupTimes
	live.startSetup().stop(&timed)
	if q := timed.quiet(live); len(live.readings) != 2 || q[0] <= 0 || timed.wall[0] <= 0 || live.failure() != nil {
		t.Errorf("%d readings, set-up %v quiet-box s, %v wall-clock s, failure %v", len(live.readings), q, timed.wall, live.failure())
	}
	for _, rd := range live.readings {
		if rd.compute <= 0 || rd.cache <= 0 || rd.wakeup != quiet.wakeup || rd.fsync != quiet.fsync {
			t.Errorf("reading %+v", rd)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping) and
	// 60..120 (outliving the root); the first child has a child 12..18.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "a.a", Parent: 1, Start: 12, End: 18},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "c", Parent: 0, Start: 60, End: 120},
	}
	want := []int64{100 - (50 - 10) - (100 - 60), 20 - 6, 6, 30, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if rootTime(spans) != 100 {
		t.Errorf("rootTime = %d", rootTime(spans))
	}

	tr := newTracer()
	if tr.begin("off") != -1 {
		t.Error("a disabled tracer recorded a span")
	}
	tr.enable(true)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner, false)
	tr.end(outer, true)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].OK || !tr.spans[0].OK {
		t.Errorf("recorded %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("nil"), true) // must not panic
}

// brokenLedger violates the capacity invariant on its only node.
type brokenLedger struct {
	out   float64
	slots int
}

func (brokenLedger) NumNodes() int                     { return 1 }
func (brokenLedger) UplinkCap(topology.NodeID) float64 { return 100 }
func (b brokenLedger) SlotsFree(topology.NodeID) int   { return b.slots }
func (b brokenLedger) UplinkReserved(topology.NodeID) (float64, float64) {
	return b.out, 0
}

// Every check fires on a violated input and passes a sound one.
func TestChecksFire(t *testing.T) {
	mustFail := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s accepted a violated input", name)
		}
	}
	mustPass := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s rejected a sound input: %v", name, err)
		}
	}
	mustPass("check 1", checkTranscript("x", "abc", "abc"))
	mustFail("check 1", checkTranscript("x", "abc", "abd"))

	c := tally{admitted: 10, rejected: 2, resized: 3, released: 10}
	s := serverTally{admitted: 10, rejected: 2, resized: 3, released: 10}
	mustPass("check 2", checkTally(c, s, true))
	bad := s
	bad.rejected = 3
	mustFail("check 2 (counts)", checkTally(c, bad, true))
	bad = s
	bad.tenants = 1
	mustFail("check 2 (live)", checkTally(c, bad, true))
	bad = s
	bad.slotsUsed = 4
	mustFail("check 2 (slots after drain)", checkTally(c, bad, true))
	bad = s
	bad.reservedMbps = 0.5
	mustFail("check 2 (Mbps after drain)", checkTally(c, bad, true))

	mustPass("check 3", checkLedger(topology.New(topology.SmallSpec())))
	mustPass("check 3", checkLedger(brokenLedger{out: 100, slots: 0}))
	mustFail("check 3 (bandwidth)", checkLedger(brokenLedger{out: 100.1}))
	mustFail("check 3 (slots)", checkLedger(brokenLedger{slots: -1}))

	mustPass("check 4", checkPeriod(0, 1, 1))
	mustPass("check 4", checkPeriod(0, 1-1e-9, 1))
	mustFail("check 4 (ratio)", checkPeriod(0, 0.99, 1))
	mustFail("check 4 (NaN)", checkPeriod(0, math.NaN(), 1))
	mustFail("check 4 (fabric)", checkPeriod(0, 1, 2))

	want := map[string]grantState{"g-1": {4, 2, 300}}
	served := map[string]grantState{"g-1": {4, 2, 300}}
	get := func(id string) (grantState, bool, error) {
		g, ok := served[id]
		return g, ok, nil
	}
	mustPass("check 5", checkRecovered(want, get, []string{"g-2"}, s, s))
	served["g-1"] = grantState{4, 2, 301}
	mustFail("check 5 (state)", checkRecovered(want, get, nil, s, s))
	delete(served, "g-1")
	mustFail("check 5 (lost)", checkRecovered(want, get, nil, s, s))
	served["g-1"] = want["g-1"]
	served["g-2"] = grantState{1, 1, 1}
	mustFail("check 5 (resurrected)", checkRecovered(want, get, []string{"g-2"}, s, s))
	delete(served, "g-2")
	mustFail("check 5 (counters)", checkRecovered(want, get, nil, s, bad))
	mustFail("check 5 (transport)", checkRecovered(want, func(string) (grantState, bool, error) {
		return grantState{}, false, errors.New("connection refused")
	}, nil, s, s))
}

// A failed op is counted, reported, and fails the run.
type failingTarget struct{ target }

func (f failingTarget) do(o *op) (outcome, error) {
	if o.kind == opResize {
		return outcome{}, errors.New("boom")
	}
	return f.target.do(o)
}

func TestFailedOpsAreCounted(t *testing.T) {
	st, err := generate(smallGen(false), 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := newService()
	if err != nil {
		t.Fatal(err)
	}
	run := replay(st, failingTarget{newLibTarget(svc, st.arrivals)}, hooks{})
	if run.failed == 0 || len(run.errs) == 0 {
		t.Fatal("failed resizes were not counted")
	}
	res := newResult("x", false)
	res.finish(run, &setupTimes{wall: []float64{1}, before: []int{0}, after: []int{0}}, nil, 1)
	line, err := res.line()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) {
		t.Errorf("result line %s", line)
	}
}

// The traced and the untraced replay of one stream decide alike.
func TestTracedTranscriptMatches(t *testing.T) {
	st, err := generate(smallGen(false), 3)
	if err != nil {
		t.Fatal(err)
	}
	plainSvc, err := newService()
	if err != nil {
		t.Fatal(err)
	}
	plain := replay(st, newLibTarget(plainSvc, st.arrivals), hooks{})
	tr := newTracer()
	tracedSvc, err := newService(withTracedPlacer(tr))
	if err != nil {
		t.Fatal(err)
	}
	traced := replay(st, newLibTarget(tracedService{tracedSvc, tr}, st.arrivals), hooks{
		tr:         tr,
		timedStart: func() { tr.enable(true) },
		timedEnd:   func() error { tr.enable(false); return nil },
	})
	if err := checkTranscript("traced", traced.hash, plain.hash); err != nil {
		t.Fatal(err)
	}
	if plain.failed+traced.failed != 0 {
		t.Fatalf("failures: %v %v", plain.errs, traced.errs)
	}
	by := groupSpans(tr.spans)
	for _, name := range []string{"bench.op", "guarantee.admit", "guarantee.resize", "guarantee.release", "cloudmirror.place"} {
		if by[name] == nil {
			t.Errorf("no %s spans", name)
		}
	}
	if n := len(by["guarantee.admit"].dur); n != len(traced.admit)+len(traced.reject) {
		t.Errorf("%d admit spans for %d timed admits", n, len(traced.admit)+len(traced.reject))
	}
}

// checkResult asserts a smoke run passed its checks and produced a
// contract line with every metric of its mode.
func checkResult(t *testing.T, res *result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d attempted, %d failed: %v", res.workload, res.attempted, res.failed, res.errs)
	}
	line, err := res.line()
	if err != nil {
		t.Fatal(err)
	}
	var out contractLine
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	if !out.Correct || len(out.Metrics) != len(defs) {
		t.Fatalf("%s: line %s", res.workload, line)
	}
	if !res.traced {
		for _, d := range defs {
			if out.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g", res.workload, d.name, out.Metrics[d.name].Value)
			}
		}
	}
}

// Every workload at about a hundredth of its size, untraced and traced.
func TestSmoke(t *testing.T) {
	t.Setenv("BENCH_WORK", t.TempDir())
	t.Cleanup(releaseAll)
	bin, err := bwdBinary()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("BENCH_BWD", bin) // build the daemon once
	inProcess := mix{compute: 0.5, cache: 0.5}
	http := admissionSizes{gen: smallGen(true), mix: mix{compute: 0.25, cache: 0.25, wakeup: 0.25, fsync: 0.25}, setups: 2, crashCycles: 1}
	lib := admissionSizes{gen: genSpec{load: 1.10, bmax: 1200, arrivals: 150, warm: 50}, mix: inProcess, setups: 1}
	steady := enforceSizes{tenants: 24, periods: 20, warmPeriods: 2, dirty: 1, setups: 2, mix: inProcess}
	storm := enforceSizes{tenants: 24, periods: 20, warmPeriods: 2, dirty: 24, churnEvery: 5, setups: 1, mix: inProcess}
	for _, traced := range []bool{false, true} {
		mode := map[bool]string{false: "untraced", true: "traced"}[traced]
		var light string
		t.Run("http_light/"+mode, func(t *testing.T) {
			res, err := runHTTP("http_light", http, 1, false, traced)
			checkResult(t, res, err)
			light = res.hash
		})
		t.Run("http_durable/"+mode, func(t *testing.T) {
			res, err := runHTTP("http_durable", http, 1, true, traced)
			checkResult(t, res, err)
			if res.hash != light {
				t.Errorf("http_durable decided differently from http_light")
			}
			if traced && res.metrics["wal.fsyncs_per_op"].Value <= 0 {
				t.Errorf("no fsyncs observed on the durable workload")
			}
		})
		t.Run("lib_packed/"+mode, func(t *testing.T) {
			res, err := runLib("lib_packed", lib, 1, traced)
			checkResult(t, res, err)
		})
		t.Run("enforce_steady/"+mode, func(t *testing.T) {
			res, err := runEnforce("enforce_steady", steady, 1, traced)
			checkResult(t, res, err)
		})
		t.Run("enforce_storm/"+mode, func(t *testing.T) {
			res, err := runEnforce("enforce_storm", storm, 1, traced)
			checkResult(t, res, err)
			if traced && res.metrics["dataplane.converge_ms_p50"].n == 0 {
				t.Errorf("the storm never converged")
			}
		})
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program
// reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d per-layer; the program %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, doc.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	for i, d := range endToEnd {
		g := doc.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, g, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g", d.name, d.bound)
		}
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := doc.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %+v", i, g, d)
		}
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("per-layer name %q / unit %q", d.name, d.unit)
		}
		seen[d.name] = true
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	mk := func(opsPerS float64) *runSet {
		set := &runSet{}
		for _, w := range workloads {
			r := savedRun{Workload: w.name}
			r.Metrics = map[string]metric{}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metric{Value: 10, Unit: d.unit}
			}
			r.Metrics["ops_per_s"] = metric{Value: opsPerS, Unit: "1/s"}
			set.Runs = append(set.Runs, r)
		}
		return set
	}
	var buf bytes.Buffer
	if n := compareSets(&buf, mk(100), mk(90)); n != 0 {
		t.Errorf("a 10%% throughput drop is within the bound, %d flagged:\n%s", n, buf.String())
	}
	buf.Reset()
	if n := compareSets(&buf, mk(100), mk(60)); n != len(workloads) {
		t.Errorf("a 40%% throughput drop flagged %d of %d workloads:\n%s", n, len(workloads), buf.String())
	}
	if n := compareSets(&buf, mk(60), mk(100)); n != 0 {
		t.Errorf("a throughput gain was flagged %d times", n)
	}
}
