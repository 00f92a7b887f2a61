package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cloudmirror/guarantee"
	"cloudmirror/internal/dataplane"
	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/workload"
)

// enforceSizes sizes an enforcement workload.
type enforceSizes struct {
	tenants     int // fleet size
	periods     int // timed control periods
	warmPeriods int // untimed periods after the fleet is admitted
	dirty       int // tenants that redeclare their loads each period
	churnEvery  int // every n-th period also swaps one tenant and converges; 0 never
	setups      int // set-ups per run; setup_s is their median
	mix         mix // what the reference work is weighted by
}

// sizeEnforce returns the steady workload (a rotating 1% of the fleet
// redeclares) or the storm (the whole fleet redeclares, and every
// 25th period one tenant is replaced and the loop run to convergence).
func sizeEnforce(seconds float64, storm bool) enforceSizes {
	sz := enforceSizes{tenants: 512, warmPeriods: 10, setups: 3, mix: mix{compute: 0.9, cache: 0.1}}
	if storm {
		sz.periods = int(30 * seconds)
		sz.dirty = sz.tenants
		sz.churnEvery = 25
	} else {
		sz.periods = int(45 * seconds)
		sz.dirty = (sz.tenants + 99) / 100
	}
	return sz
}

// maxPairs bounds the flows one tenant declares, so a period's cost
// stays linear in tenants (sim.EnforceBench's cap).
const maxPairs = 32

// demandPlan is the fixed half of a tenant's demand declarations: up
// to maxPairs TAG-permitted VM pairs with their hose bounds. A
// redeclaration draws new loads on the same pairs.
type demandPlan struct {
	src, dst []int
	bound    []float64
}

func newDemandPlan(g *tag.Graph) *demandPlan {
	dep := enforce.NewDeployment(g)
	type pair struct{ s, d int }
	var candidates []pair
	seen := make(map[pair]bool)
	for _, e := range g.Edges() {
		for _, s := range dep.TierVMs(e.From) {
			for _, d := range dep.TierVMs(e.To) {
				if s == d || seen[pair{s, d}] {
					continue
				}
				seen[pair{s, d}] = true
				candidates = append(candidates, pair{s, d})
			}
		}
	}
	if len(candidates) > maxPairs {
		sampled := make([]pair, maxPairs)
		for i := range sampled {
			sampled[i] = candidates[i*len(candidates)/maxPairs]
		}
		candidates = sampled
	}
	p := &demandPlan{}
	for _, c := range candidates {
		snd, rcv, ok := dep.PairGuarantee(c.s, c.d)
		if bound := math.Min(snd, rcv); ok && bound > 0 {
			p.src = append(p.src, c.s)
			p.dst = append(p.dst, c.d)
			p.bound = append(p.bound, bound)
		}
	}
	return p
}

// draw declares each pair at 0.25, 0.5, 1 or 2 times its hose bound:
// some flows under their guarantee, some bursting past it.
func (p *demandPlan) draw(r *rand.Rand) []guarantee.Demand {
	factors := [...]float64{0.25, 0.5, 1, 2}
	ds := make([]guarantee.Demand, len(p.src))
	for i := range ds {
		ds[i] = guarantee.Demand{Src: p.src[i], Dst: p.dst[i], Mbps: factors[r.Intn(len(factors))] * p.bound[i]}
	}
	return ds
}

// member is one tenant of the fleet.
type member struct {
	grant   guarantee.Grant
	graph   *tag.Graph
	plan    *demandPlan
	demands []guarantee.Demand // the current declaration
}

// fleet is a Service with enforcement attached and its admitted
// tenants.
type fleet struct {
	svc     guarantee.Service
	enf     *guarantee.Enforcement
	pool    []*tag.Graph
	pick    *rand.Rand // which pool tenant arrives next: trajectorySeed
	r       *rand.Rand // offered loads: the run's seed
	tr      *tracer
	ref     *reference // untraced run: read after every segment
	members []member
	nextID  int64

	attempted               int
	requestedBW, admittedBW float64
	failures
}

// newFleet builds the service and admits n tenants drawn from the
// BingLike pool at Bmax 800, each with a declared demand plan.
//
// Which tenants make up the fleet does not depend on the seed: the
// fleet's component structure — whether shared core links stitch most
// tenants into one component — sets the period's cost, and fleets
// drawn per seed had periods from 5 to 19 ms. The seed draws every
// offered load instead.
func newFleet(seed int64, n int, tr *tracer) (*fleet, error) {
	svc, err := newService(guarantee.WithEnforcement(guarantee.EnforcementConfig{}))
	if err != nil {
		return nil, err
	}
	pool := workload.BingLike(trajectorySeed)
	workload.ScaleToBmax(pool, 800)
	f := &fleet{svc: svc, enf: svc.Enforcement(), pool: pool, tr: tr,
		pick: rand.New(rand.NewSource(trajectorySeed)), r: rand.New(rand.NewSource(seed))}
	for len(f.members) < n {
		m, err := f.admit()
		if err != nil {
			return nil, err
		}
		f.members = append(f.members, m)
	}
	return f, nil
}

// admit draws tenants from the pool until one is admitted and declares
// its demands.
func (f *fleet) admit() (member, error) {
	for tries := 0; tries < 1000; tries++ {
		g := f.pool[f.pick.Intn(len(f.pool))]
		f.nextID++
		f.attempted++
		bw := g.AggregateBandwidth()
		f.requestedBW += bw
		sp := f.tr.begin("guarantee.admit")
		grant, err := f.svc.Admit(context.Background(), guarantee.Request{ID: f.nextID, Graph: g})
		f.tr.end(sp, err == nil)
		if err != nil {
			if errors.Is(err, place.ErrRejected) {
				continue
			}
			return member{}, fmt.Errorf("admitting fleet tenant %d: %w", f.nextID, err)
		}
		f.admittedBW += bw
		m := member{grant: grant, graph: g, plan: newDemandPlan(g)}
		m.demands = m.plan.draw(f.r)
		if err := f.enf.SetDemand(grant, m.demands); err != nil {
			return member{}, fmt.Errorf("declaring demands of tenant %d: %w", f.nextID, err)
		}
		return m, nil
	}
	return member{}, errors.New("the datacenter rejected 1000 fleet tenants in a row")
}

// enforceRun is what one enforcement pass measured.
type enforceRun struct {
	hash                    string
	period, setDemand, step samples // timed periods, ns
	converge                samples
	convergeIters           []float64
	wallNS, callNS          int64
	quietNS                 float64 // timed periods in a quiet box's time
	periodQuiet             samples // period in a quiet box's time
	solved, components      int64   // summed over timed periods
	pairs, colocated        int     // last period
	probes                  enforceProbes
}

// enforceProbes are the stage timings of the fleet's flow problem
// rebuilt from the layers' public pieces (milliseconds, except bind).
type enforceProbes struct {
	fabric, gp, ra, maxmin []float64
	bindNS                 samples
	flows, links           int
	largestShare           float64 // pairs in the largest component / all pairs
	raScratch              enforce.RA
	solver                 netem.Solver
}

// runPeriods drives the control loop: warm-up, then setup() — the
// set-up is over — then the timed periods in segments, checking every
// period.
func (f *fleet) runPeriods(sz enforceSizes, setup func(), probe bool) *enforceRun {
	run := &enforceRun{}
	h := sha256.New()
	var buf []byte
	record := func(period int, rep *guarantee.EnforcementReport) {
		solved, comps := f.enf.SolveStats()
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(period))
		for _, v := range []float64{rep.GuaranteedMbps, rep.AchievedMbps, rep.MinRatio} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range []int{rep.Tenants, rep.Pairs, rep.Colocated, rep.Iterations, solved, comps} {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h.Write(buf)
		f.check(checkPeriod(period, rep.MinRatio, f.enf.Counters().FabricBuilds))
	}
	rot, victim := 0, 0
	n := len(f.members)
	period := func(p int, timed bool) {
		f.tr.nextOp(p)
		root := f.tr.begin("bench.period")
		defer func() { f.tr.end(root, true) }()
		f.attempted++
		t0 := time.Now()
		var calls int64
		for k := 0; k < sz.dirty; k++ {
			m := &f.members[(rot+k*n/sz.dirty)%n]
			m.demands = m.plan.draw(f.r)
			sp := f.tr.begin("dataplane.set_demand")
			c0 := time.Now()
			err := f.enf.SetDemand(m.grant, m.demands)
			d := int64(time.Since(c0))
			f.tr.end(sp, err == nil)
			calls += d
			if timed {
				run.setDemand = append(run.setDemand, d)
			}
			if err != nil {
				f.fail(fmt.Errorf("period %d: %w", p, err))
			}
		}
		rot = (rot + 1) % n
		sp := f.tr.begin("dataplane.step")
		c0 := time.Now()
		rep, err := f.enf.Step()
		d := int64(time.Since(c0))
		f.tr.end(sp, err == nil)
		calls += d
		if err != nil {
			f.fail(fmt.Errorf("period %d: %w", p, err))
			return
		}
		if timed {
			run.period = append(run.period, int64(time.Since(t0)))
			run.step = append(run.step, d)
			run.callNS += calls
			solved, comps := f.enf.SolveStats()
			run.solved += int64(solved)
			run.components += int64(comps)
			run.pairs, run.colocated = rep.Pairs, rep.Colocated
		}
		record(p, rep)
		if sz.churnEvery == 0 || (p+1)%sz.churnEvery != 0 {
			return
		}
		// Membership change: one tenant leaves, a fresh one arrives,
		// and the loop runs to convergence.
		c0 = time.Now()
		f.attempted++
		sp = f.tr.begin("guarantee.release")
		f.members[victim].grant.Release()
		f.tr.end(sp, true)
		m, err := f.admit()
		if err != nil {
			f.fail(err)
			return
		}
		f.members[victim] = m
		victim = (victim + 1) % n
		churn := int64(time.Since(c0))
		sp = f.tr.begin("dataplane.converge")
		c0 = time.Now()
		rep, err = f.enf.Converge(0, 0)
		d = int64(time.Since(c0))
		f.tr.end(sp, err == nil)
		if err != nil {
			f.fail(fmt.Errorf("period %d converge: %w", p, err))
			return
		}
		if timed {
			run.converge = append(run.converge, d)
			run.convergeIters = append(run.convergeIters, float64(rep.Iterations))
			run.callNS += churn + d
		}
		record(p, rep)
	}

	for p := 0; p < sz.warmPeriods; p++ {
		period(p, false)
	}
	setup()
	f.tr.enable(true)
	phase := f.ref.startPhase()
	for k := 0; k < segments; k++ {
		lo := sz.warmPeriods + k*sz.periods/segments
		hi := sz.warmPeriods + (k+1)*sz.periods/segments
		if hi == lo {
			continue // a set-up that is measured and dropped has no timed periods
		}
		t0 := time.Now()
		for p := lo; p < hi; p++ {
			period(p, true)
		}
		wall := int64(time.Since(t0))
		phase.end(wall, len(run.period))
		run.wallNS += wall
		if probe && k%5 == 4 {
			f.tr.enable(false)
			f.check(f.probe(&run.probes))
			f.tr.enable(true)
		}
	}
	f.tr.enable(false)
	run.quietNS, run.periodQuiet = phase.quiet(run.period)
	run.hash = fmt.Sprintf("%x", h.Sum(nil))
	return run
}

// probe rebuilds the fleet's flow problem from the layers' public
// pieces — fabric, bindings, paths, partitioners — and times GP, RA
// and max-min over every component of it, serially, three times each:
// what a period that re-solved everything would spend solving.
func (f *fleet) probe(acc *enforceProbes) error {
	t0 := time.Now()
	fab, err := dataplane.NewFabric(f.svc.Topology(0))
	if err != nil {
		return fmt.Errorf("probe fabric: %w", err)
	}
	acc.fabric = append(acc.fabric, ms(int64(time.Since(t0))))

	type slice struct {
		gp     enforce.Partitioner
		lo, hi int
	}
	var (
		pairs   []enforce.Pair
		paths   [][]netem.LinkID
		tenants []slice
	)
	for i := range f.members {
		m := &f.members[i]
		t0 := time.Now()
		bind, err := dataplane.Bind(m.graph, m.grant.Reservation().Placement())
		if err != nil {
			return fmt.Errorf("probe bind: %w", err)
		}
		acc.bindNS = append(acc.bindNS, int64(time.Since(t0)))
		// The driver keeps declarations sorted by (Src, Dst).
		ds := append([]guarantee.Demand(nil), m.demands...)
		sort.Slice(ds, func(a, b int) bool {
			if ds[a].Src != ds[b].Src {
				return ds[a].Src < ds[b].Src
			}
			return ds[a].Dst < ds[b].Dst
		})
		lo := len(pairs)
		for _, d := range ds {
			path := fab.Path(bind.Server(d.Src), bind.Server(d.Dst))
			if len(path) == 0 {
				continue // colocated: never crosses the fabric
			}
			pairs = append(pairs, enforce.Pair{Src: d.Src, Dst: d.Dst, Demand: d.Mbps})
			paths = append(paths, path)
		}
		tenants = append(tenants, slice{enforce.NewTAGPartitioner(bind.Deployment()), lo, len(pairs)})
	}
	// Max-min decomposes over the connected components of the
	// tenant-link graph, and the driver solves each on its own; one
	// solve over the whole fleet costs more than their sum. Group the
	// tenants the same way: union those that share a fabric link.
	owner := make(map[netem.LinkID]int) // link -> first tenant seen on it
	parent := make([]int, len(tenants))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for i, t := range tenants {
		for _, path := range paths[t.lo:t.hi] {
			for _, l := range path {
				if o, ok := owner[l]; ok {
					parent[find(i)] = find(o)
				} else {
					owner[l] = i
				}
			}
		}
	}
	members := make(map[int][]int) // root -> tenants, in fleet order
	var roots []int
	for i := range tenants {
		r := find(i)
		if members[r] == nil {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	type problem struct {
		pairs      []enforce.Pair
		paths      [][]netem.LinkID
		guarantees []float64
		flows      []netem.Flow
	}
	comps := make([]problem, len(roots))
	for c, r := range roots {
		for _, i := range members[r] {
			t := tenants[i]
			comps[c].pairs = append(comps[c].pairs, pairs[t.lo:t.hi]...)
			comps[c].paths = append(comps[c].paths, paths[t.lo:t.hi]...)
		}
		comps[c].flows = make([]netem.Flow, len(comps[c].pairs))
		if share := float64(len(comps[c].pairs)) / float64(len(pairs)); share > acc.largestShare {
			acc.largestShare = share
		}
	}

	for rep := 0; rep < 3; rep++ {
		t0 = time.Now()
		for c, r := range roots {
			g := comps[c].guarantees[:0]
			off := 0
			for _, i := range members[r] {
				t := tenants[i]
				g = enforce.AppendGuarantees(g, t.gp, comps[c].pairs[off:off+t.hi-t.lo])
				off += t.hi - t.lo
			}
			comps[c].guarantees = g
		}
		acc.gp = append(acc.gp, ms(int64(time.Since(t0))))

		var raNS, maxminNS int64
		for c := range comps {
			p := &comps[c]
			if len(p.pairs) == 0 {
				continue
			}
			t0 = time.Now()
			targets, err := acc.raScratch.Alloc(fab.Network(), p.pairs, p.paths, p.guarantees)
			if err != nil {
				return fmt.Errorf("probe RA: %w", err)
			}
			raNS += int64(time.Since(t0))
			for i, pr := range p.pairs {
				p.flows[i] = netem.Flow{Path: p.paths[i], Demand: pr.Demand, Limit: targets[i], Weight: p.guarantees[i] + 1}
			}
			t0 = time.Now()
			if _, err := acc.solver.MaxMin(fab.Network(), p.flows, nil); err != nil {
				return fmt.Errorf("probe max-min: %w", err)
			}
			maxminNS += int64(time.Since(t0))
		}
		acc.ra = append(acc.ra, ms(raNS))
		acc.maxmin = append(acc.maxmin, ms(maxminNS))
	}
	acc.flows, acc.links = len(pairs), fab.Network().Links()
	return nil
}

// runEnforce measures an enforcement workload in process.
func runEnforce(name string, sz enforceSizes, seed int64, traced bool) (*result, error) {
	res := newResult(name, traced)
	var ref *reference
	if !traced {
		var err error
		if ref, err = newReference(sz.mix); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	var setups setupTimes
	pass := func(sz enforceSizes, tr *tracer, probe bool) (*fleet, *enforceRun, error) {
		clock := ref.startSetup()
		f, err := newFleet(seed, sz.tenants, tr)
		if err != nil {
			return nil, nil, err
		}
		f.ref = ref
		return f, f.runPeriods(sz, func() { clock.stop(&setups) }, probe), nil
	}

	// Set-ups beyond the first admit the fleet, warm it up and drop it.
	setupOnly := sz
	setupOnly.periods = 0
	for k := 1; k < sz.setups; k++ {
		if _, _, err := pass(setupOnly, nil, false); err != nil {
			return nil, err
		}
	}
	f, run, err := pass(sz, nil, false)
	if err != nil {
		return nil, err
	}
	if traced {
		untraced := run
		tr := newTracer()
		if f, run, err = pass(sz, tr, true); err != nil {
			return nil, err
		}
		f.check(checkTranscript("traced", run.hash, untraced.hash))
		enforceLayers(res, tr.spans, run)
		res.set("bench.trace_overhead_share", float64(run.wallNS)/float64(untraced.wallNS)-1, 0)
		if err := saveSpans(name, seed, tr.spans); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failures, res.hash = f.attempted, f.failures, run.hash
	p := run.period.sorted()
	res.noteTail("control periods", p)
	if traced {
		return res, nil
	}
	res.set("bench.client_busy_share", 1-float64(run.callNS)/float64(run.wallNS), 0)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	res.timings(ref, &setups, len(p), run.wallNS, run.quietNS, percentile(p, 0.5), percentile(run.periodQuiet.sorted(), 0.5))
	res.set("peak_rss_mb", rss, 0)
	res.set("admitted_bw_share", f.admittedBW/f.requestedBW, 0)
	return res, nil
}

// enforceLayers turns a traced enforcement pass into the per-layer
// metrics of the control loop.
func enforceLayers(res *result, spans []span, run *enforceRun) {
	by := groupSpans(spans)
	v, n := by["dataplane.set_demand"].pct(durOf, 0.5)
	res.set("dataplane.set_demand_us_p50", us(v), n)
	v, n = by["dataplane.step"].pct(durOf, 0.5)
	res.set("dataplane.step_ms_p50", ms(v), n)
	stepP50 := ms(v)
	v, n = by["dataplane.step"].pct(durOf, 0.95)
	res.set("dataplane.step_ms_p95", ms(v), n)
	v, n = by["dataplane.converge"].pct(durOf, 0.5)
	res.set("dataplane.converge_ms_p50", ms(v), n)
	if len(run.convergeIters) > 0 {
		var sum float64
		for _, it := range run.convergeIters {
			sum += it
		}
		res.set("dataplane.converge_iters_mean", sum/float64(len(run.convergeIters)), len(run.convergeIters))
	}
	periods := float64(len(run.period))
	res.set("dataplane.components_mean", float64(run.components)/periods, len(run.period))
	res.set("dataplane.solved_components_mean", float64(run.solved)/periods, len(run.period))
	res.set("dataplane.solved_share", float64(run.solved)/float64(run.components), 0)
	res.set("dataplane.pairs", float64(run.pairs), 0)
	res.set("dataplane.colocated_pairs", float64(run.colocated), 0)

	pr := &run.probes
	res.set("dataplane.fabric_build_ms", median(pr.fabric), len(pr.fabric))
	res.set("dataplane.bind_us_p50", us(percentile(pr.bindNS.sorted(), 0.5)), len(pr.bindNS))
	res.set("enforce.gp_ms_p50", median(pr.gp), len(pr.gp))
	res.set("enforce.ra_ms_p50", median(pr.ra), len(pr.ra))
	res.set("netem.maxmin_ms_p50", median(pr.maxmin), len(pr.maxmin))
	res.set("netem.flows", float64(pr.flows), 0)
	res.set("netem.links", float64(pr.links), 0)
	res.set("dataplane.largest_component_share", pr.largestShare, 0)
	res.set("dataplane.step_overhead_ms_p50", stepP50-(median(pr.gp)+median(pr.ra)+median(pr.maxmin)), 0)
	res.set("bench.client_busy_share", float64(by["bench.period"].self.sum())/float64(run.wallNS), 0)
	res.setUnattributed(1 - float64(rootTime(spans))/float64(run.wallNS))
}
