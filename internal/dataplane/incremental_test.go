package dataplane

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"cloudmirror/internal/netem"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// These tests pin what makes a steady period cost O(dirty): a component
// settles in the solve that reached its fixed point, Converge decides on
// the solves' own rate movement, Pairs answers between periods without
// touching a stale cache, and a period's allocation does not grow with
// the fleet.

// diffFleet admits n random tenants on both drivers and declares most
// of them.
func diffFleet(t *testing.T, rng *rand.Rand, tree *topology.Tree, n int, drivers ...*Driver) {
	t.Helper()
	for key := int64(1); key <= int64(n); key++ {
		g := diffGraph(rng, int(key))
		ev := admitEvent(key, g, diffPlace(rng, tree, g))
		for _, d := range drivers {
			d.Publish(ev)
		}
		if rng.Intn(4) == 0 {
			continue // stays on the backlogged default
		}
		ds := oracleDemands(rng, drivers[0], key)
		for _, d := range drivers {
			if err := d.SetDemand(key, ds); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDifferentialSettleInOneSolve: after one redeclaration in a settled
// fleet, the tenant's component is solved until one more limiter step
// would be a no-op and skipped from then on — once or twice at alpha 1,
// where limiters jump to their targets, for as long as the geometric
// approach takes at alpha 0.3 — and skipping is exact: FullRecompute,
// which keeps re-solving everything, reports the same bytes throughout,
// and forcing one more solve of the settled component changes no limit
// and no rate.
func TestDifferentialSettleInOneSolve(t *testing.T) {
	for _, alpha := range []float64{1, 0.3} {
		tree := diffTopo()
		inc, err := New(tree, Config{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(tree, Config{Alpha: alpha, FullRecompute: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		diffFleet(t, rng, tree, 8, inc, full)
		period := 0
		step := func() int {
			t.Helper()
			period++
			stInc, err := inc.Step()
			if err != nil {
				t.Fatal(err)
			}
			stFull, err := full.Step()
			if err != nil {
				t.Fatal(err)
			}
			requireStatsIdentical(t, period, stInc, stFull)
			requirePairsIdentical(t, period, inc, full, stInc)
			return stInc.Solved
		}
		// solvedRun steps until a period solves nothing and returns the
		// solve counts of the periods before it.
		solvedRun := func() []int {
			t.Helper()
			var run []int
			for i := 0; i < 400; i++ {
				s := step()
				if s == 0 {
					return run
				}
				run = append(run, s)
			}
			t.Fatalf("alpha %v: still solving after 400 periods", alpha)
			return nil
		}
		solvedRun()

		// One tenant draws new loads on the pairs it has.
		const key = 3
		ds := append([]Demand(nil), inc.tenants[key].demands...)
		for i := range ds {
			ds[i].Mbps = float64(20 + rng.Intn(300))
		}
		for _, d := range []*Driver{inc, full} {
			if err := d.SetDemand(key, ds); err != nil {
				t.Fatal(err)
			}
		}
		run := solvedRun()
		t.Logf("alpha %v: the redeclared component was solved for %d periods", alpha, len(run))
		for i, s := range run {
			if s != 1 {
				t.Errorf("alpha %v: period %d after the redeclaration solved %d components, want 1", alpha, i, s)
			}
		}
		if alpha == 1 && (len(run) < 1 || len(run) > 2) {
			t.Errorf("alpha 1: the redeclared component was solved %d times, want once or twice", len(run))
		}
		if alpha < 1 && len(run) <= 2 {
			t.Errorf("alpha %v: the redeclared component was solved %d times; its limiters cannot have reached their targets yet", alpha, len(run))
		}
		// Quiet periods stay skipped, and stay equal to FullRecompute's.
		for i := 0; i < 3; i++ {
			if s := step(); s != 0 {
				t.Fatalf("alpha %v: a quiet period after settling solved %d components", alpha, s)
			}
		}
		// Skipping was exact: one more solve reproduces the caches.
		tn := inc.tenants[key]
		limits := append([]float64(nil), tn.limits...)
		rates := append([]float64(nil), tn.rates...)
		tn.dirty = true
		if s := step(); s != 1 {
			t.Fatalf("alpha %v: the forced solve solved %d components, want 1", alpha, s)
		}
		for j := range limits {
			if !feq(limits[j], tn.limits[j]) || !feq(rates[j], tn.rates[j]) {
				t.Fatalf("alpha %v: re-solving the settled component moved pair %d: limit %v → %v, rate %v → %v",
					alpha, j, limits[j], tn.limits[j], rates[j], tn.rates[j])
			}
		}
		if s := step(); s != 0 {
			t.Fatalf("alpha %v: the period after the forced solve solved %d components", alpha, s)
		}
	}
}

// convergeByRateCopy is the convergence rule Converge used to apply,
// spelled out over the public surface: step, copy every enforced pair's
// rate in (admission, pair) order, and stop when no rate moved by more
// than eps against the previous copy.
func convergeByRateCopy(t *testing.T, d *Driver, maxIters int, eps float64) (*StepStats, int) {
	t.Helper()
	var prev []float64
	for it := 1; ; it++ {
		st, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		var rates []float64
		for _, ts := range st.Tenants {
			for _, p := range pairsOf(t, d, ts.Key) {
				if !p.Colocated {
					rates = append(rates, p.Rate)
				}
			}
		}
		if it > 1 && len(prev) == len(rates) {
			worst := 0.0
			for i := range rates {
				if delta := math.Abs(rates[i] - prev[i]); delta > worst {
					worst = delta
				}
			}
			if worst <= eps {
				return st, it
			}
		}
		if it == maxIters {
			return st, it
		}
		prev = rates
	}
}

// TestDifferentialConvergeMatchesRateCopy: Converge decides on the
// largest rate movement the period's solves report instead of copying
// and comparing every rate; on the fleets the convergence tests use it
// must stop at the same iteration with the same report.
func TestDifferentialConvergeMatchesRateCopy(t *testing.T) {
	type twin struct{ a, b *Driver }
	build := func(tree *topology.Tree, cfg Config) twin {
		t.Helper()
		a, err := New(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return twin{a, b}
	}
	// check runs one convergence on both twins and compares.
	check := func(name string, tw twin, maxIters int, eps float64) {
		t.Helper()
		stA, itA, err := tw.a.Converge(maxIters, eps)
		if err != nil {
			t.Fatal(err)
		}
		if maxIters <= 0 {
			maxIters = 50
		}
		if eps <= 0 {
			eps = 1e-6
		}
		stB, itB := convergeByRateCopy(t, tw.b, maxIters, eps)
		if itA != itB {
			t.Fatalf("%s: Converge took %d iterations, the rate-copy rule %d", name, itA, itB)
		}
		requireStatsIdentical(t, 0, stA, stB)
		requirePairsIdentical(t, 0, tw.a, tw.b, stA)
	}

	for k := 1; k <= 3; k++ { // TestFig13Equivalence's fleet
		tree := topology.New(flatSpec(8, 24))
		tw := build(tree, Config{})
		g := fig13Graph(k, 24*0.45)
		demands := []Demand{{Src: 0, Dst: 1, Mbps: netem.Greedy}}
		for s := 0; s < k; s++ {
			demands = append(demands, Demand{Src: 2 + s, Dst: 1, Mbps: netem.Greedy})
		}
		for _, d := range []*Driver{tw.a, tw.b} {
			d.Publish(admitEvent(1, g, spread(tree, g)))
			if err := d.SetDemand(1, demands); err != nil {
				t.Fatal(err)
			}
		}
		check("fig13", tw, 0, 0)
		check("fig13 again, already converged", tw, 0, 0)
	}

	for _, alpha := range []float64{1, 0.5, 0.3} { // TestDifferentialConverge's fleet
		tree := diffTopo()
		tw := build(tree, Config{Alpha: alpha})
		rng := rand.New(rand.NewSource(7))
		diffFleet(t, rng, tree, 6, tw.a, tw.b)
		check("diff fleet", tw, 0, 0)
		check("diff fleet, one period", tw, 1, 0)
		ds := oracleDemands(rng, tw.a, 2)
		for _, d := range []*Driver{tw.a, tw.b} {
			d.Publish(place.Event{Kind: place.EventReleased, Key: 5})
			if err := d.SetDemand(2, ds); err != nil {
				t.Fatal(err)
			}
		}
		check("diff fleet after churn", tw, 0, 0)
		check("diff fleet, capped", tw, 3, 1e-12)
		check("diff fleet, loose", tw, 0, 10)
	}
}

// TestPairsBetweenPeriods: Pairs may be asked between a change and the
// next period, when the solve caches describe the previous declaration.
// It reports the declaration as it stands — new loads at once, rows for
// the new pair set or the new VM set at once — with Guarantee and Rate
// from the last period that solved the pair, zero if none has, and
// never indexes a stale cache.
func TestPairsBetweenPeriods(t *testing.T) {
	tree := topology.New(topology.Spec{
		SlotsPerServer: 2,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 1000},
		},
	})
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// hose installs an n-VM single-tier tenant, two VMs per server: VMs
	// 2i and 2i+1 are colocated.
	hose := func(kind place.EventKind, n int) {
		g := tag.New("hose")
		g.AddSelfLoop(g.AddTier("a", n), 100)
		pl := make(place.Placement)
		for i := 0; i < n; i++ {
			pl.Add(tree.Servers()[i/2], 1, 0, 1)
		}
		d.Publish(place.Event{Kind: kind, Key: 1, ID: 1, Graph: g, Placement: pl})
	}
	count := func(rows []PairStats) (enforced, colocated, solved int) {
		for _, p := range rows {
			switch {
			case p.Colocated:
				colocated++
				if p.Guarantee != 0 || p.Rate != p.Demand {
					t.Fatalf("colocated pair %+v: want no guarantee and its full demand", p)
				}
			case p.Guarantee > 0 && p.Rate > 0:
				enforced++
				solved++
			default:
				enforced++
				if p.Guarantee != 0 || p.Rate != 0 {
					t.Fatalf("pair %+v is half-solved", p)
				}
			}
		}
		return
	}

	// Admitted, no period yet: the backlogged default, nothing solved.
	hose(place.EventAdmitted, 4)
	rows := pairsOf(t, d, 1)
	if e, c, s := count(rows); e != 8 || c != 4 || s != 0 {
		t.Fatalf("before any period: %d enforced (%d solved), %d colocated; want 8 (0), 4", e, s, c)
	}
	if !math.IsInf(rows[0].Demand, 1) || !rows[0].Colocated || !math.IsInf(rows[0].Rate, 1) {
		t.Fatalf("undeclared colocated pair %+v: want a Greedy demand achieved in full", rows[0])
	}
	st, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	if e, c, s := count(pairsOf(t, d, 1)); e != 8 || c != 4 || s != 8 || st.Pairs != 8 || st.Colocated != 4 {
		t.Fatalf("after a period: %d enforced (%d solved), %d colocated, report %d+%d; want 8 (8), 4", e, s, c, st.Pairs, st.Colocated)
	}

	// A declaration naming other pairs — more rows than the caches hold
	// would be the out-of-range read — reports the new rows, unsolved.
	if err := d.SetDemand(1, []Demand{{Src: 0, Dst: 2, Mbps: 50}, {Src: 0, Dst: 1, Mbps: 70}}); err != nil {
		t.Fatal(err)
	}
	rows = pairsOf(t, d, 1)
	if e, c, s := count(rows); len(rows) != 2 || e != 1 || c != 1 || s != 0 {
		t.Fatalf("after naming other pairs: %d rows, %d enforced (%d solved), %d colocated; want 2, 1 (0), 1", len(rows), e, s, c)
	}
	if rows[0].Dst != 1 || rows[0].Rate != 70 || rows[1].Demand != 50 {
		t.Fatalf("rows %+v: want (0,1) colocated at 70 then (0,2) offering 50", rows)
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	rows = pairsOf(t, d, 1)
	if rows[1].Rate != 50 || rows[1].Guarantee <= 0 {
		t.Fatalf("after the next period: %+v, want 50 Mbps under a guarantee", rows[1])
	}
	guarantee := rows[1].Guarantee

	// New loads on the same pairs: Demand moves at once, Guarantee and
	// Rate stay the last period's until the next one.
	if err := d.SetDemand(1, []Demand{{Src: 0, Dst: 1, Mbps: 70}, {Src: 0, Dst: 2, Mbps: 30}}); err != nil {
		t.Fatal(err)
	}
	if p := pairsOf(t, d, 1)[1]; p.Demand != 30 || p.Rate != 50 || p.Guarantee != guarantee {
		t.Fatalf("between periods: %+v, want demand 30 beside the last period's rate 50", p)
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if p := pairsOf(t, d, 1)[1]; p.Rate != 30 {
		t.Fatalf("after the next period: %+v, want rate 30", p)
	}

	// A resize to more VMs resets the declaration: the new default,
	// unsolved, though the caches still hold the old single pair.
	hose(place.EventResized, 6)
	if e, c, s := count(pairsOf(t, d, 1)); e != 24 || c != 6 || s != 0 {
		t.Fatalf("after a resize: %d enforced (%d solved), %d colocated; want 24 (0), 6", e, s, c)
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if e, _, s := count(pairsOf(t, d, 1)); e != 24 || s != 24 {
		t.Fatalf("after the resize's period: %d enforced, %d solved; want 24, 24", e, s)
	}

	if _, err := d.Pairs(99); place.ReasonOf(err) != place.ReasonInvalidRequest {
		t.Errorf("unknown key: reason = %q, want invalid_request", place.ReasonOf(err))
	}
}

// TestStepAllocs: a steady period redeclaring k tenants allocates the
// report and the solves' bookkeeping — nothing per pair, and nothing
// per tenant beyond the report's Tenants slice. Going from a 64- to a
// 512-tenant fleet may add that slice's growth and no more.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	// One P: the solves' pooled scratch is per-P, and the collector must
	// not empty it between periods.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k, periods = 4, 40
	bytesPerStep := func(tenants int) float64 {
		tree := rackTree(32, 32, 1000, 100000)
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tenants; i++ {
			admitPair(int64(i+1), tree, 2*i, 2*i+1, d)
			send(t, int64(i+1), 100, d)
		}
		var total uint64
		for p := -5; p < periods; p++ { // five warm-up periods size the scratch
			for j := 0; j < k; j++ {
				send(t, int64(1+(p+5+j*tenants/k)%tenants), float64(200+p), d)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := d.Step()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if p >= 0 && (st.Solved != k || st.Components != tenants) {
				t.Fatalf("%d tenants: period solved %d of %d components, want %d of %d", tenants, st.Solved, st.Components, k, tenants)
			}
			if p >= 0 {
				total += after.TotalAlloc - before.TotalAlloc
			}
		}
		return float64(total) / periods
	}
	small, large := bytesPerStep(64), bytesPerStep(512)
	// The slice's growth, plus a page for the allocator's rounding (the
	// larger slice is a page-granular object, the smaller a size class).
	allowed := float64((512-64)*unsafe.Sizeof(TenantStats{})) + 8192
	t.Logf("bytes per period: %.0f at 64 tenants, %.0f at 512", small, large)
	if large-small > allowed {
		t.Errorf("a period allocates %.0f B at 64 tenants and %.0f B at 512: grew by %.0f, want at most the Tenants slice's %.0f",
			small, large, large-small, allowed)
	}
}

// TestSetDemandRedeclarations: a declaration over the pairs a tenant
// already has — in kept (Src, Dst) order or any other — only updates
// loads: no flow refresh, no structure rebuild, and nothing at all when
// the loads are the same bits; a caller's slice is never kept or
// reordered.
func TestSetDemandRedeclarations(t *testing.T) {
	tree := topology.New(flatSpec(8, 1000))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := fig13Graph(2, 100)
	d.Publish(admitEvent(1, g, spread(tree, g)))
	sorted := []Demand{{Src: 0, Dst: 1, Mbps: 10}, {Src: 2, Dst: 1, Mbps: 20}, {Src: 3, Dst: 1, Mbps: 30}}
	if err := d.SetDemand(1, sorted); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	tn := d.tenants[1]
	for _, c := range []struct {
		name  string
		ds    []Demand
		dirty bool
		rates [3]float64
	}{
		{"verbatim", sorted, false, [3]float64{10, 20, 30}},
		{"verbatim, shuffled", []Demand{sorted[2], sorted[0], sorted[1]}, false, [3]float64{10, 20, 30}},
		{"new loads", []Demand{{Src: 0, Dst: 1, Mbps: 11}, {Src: 2, Dst: 1, Mbps: 20}, {Src: 3, Dst: 1, Mbps: 31}}, true, [3]float64{11, 20, 31}},
		{"new loads, shuffled", []Demand{{Src: 3, Dst: 1, Mbps: 32}, {Src: 0, Dst: 1, Mbps: 12}, {Src: 2, Dst: 1, Mbps: 22}}, true, [3]float64{12, 22, 32}},
		{"those again", []Demand{{Src: 3, Dst: 1, Mbps: 32}, {Src: 0, Dst: 1, Mbps: 12}, {Src: 2, Dst: 1, Mbps: 22}}, false, [3]float64{12, 22, 32}},
	} {
		name := c.name
		given := append([]Demand(nil), c.ds...)
		if err := d.SetDemand(1, c.ds); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range given {
			if c.ds[i] != given[i] {
				t.Errorf("%s: SetDemand reordered the caller's slice", name)
			}
		}
		if tn.flowsDirty || tn.dirty != c.dirty || tn.queued != c.dirty {
			t.Errorf("%s: flowsDirty %v dirty %v queued %v, want false %v %v", name, tn.flowsDirty, tn.dirty, tn.queued, c.dirty, c.dirty)
		}
		c.ds[0].Mbps = -1 // the driver must not alias the caller's slice
		if _, rebuilt := pendingComponents(d); rebuilt {
			t.Errorf("%s: a load-only redeclaration rebuilt the structure", name)
		}
		st, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if c.dirty {
			want = 1
		}
		if st.Solved != want {
			t.Errorf("%s: period solved %d components, want %d", name, st.Solved, want)
		}
		for i, p := range pairsOf(t, d, 1) {
			if p.Demand != c.rates[i] || p.Rate != c.rates[i] {
				t.Errorf("%s: pair %d offers %v and achieves %v, want %v", name, i, p.Demand, p.Rate, c.rates[i])
			}
		}
	}

	// An empty declaration — nil or not — is an idle tenant, never the
	// undeclared backlogged default.
	for _, c := range []struct {
		name string
		ds   []Demand
	}{
		{"nil", nil},
		{"empty", []Demand{}},
	} {
		busy := []Demand{{Src: 0, Dst: 1, Mbps: 10}, {Src: 2, Dst: 1, Mbps: 20}, {Src: 3, Dst: 1, Mbps: 30}}
		if err := d.SetDemand(1, busy); err != nil {
			t.Fatal(err)
		}
		if st, err := d.Step(); err != nil || st.Pairs != 3 {
			t.Fatalf("%s: redeclared 3 pairs, period reports %d (%v)", c.name, st.Pairs, err)
		}
		if err := d.SetDemand(1, c.ds); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rows := pairsOf(t, d, 1); len(rows) != 0 {
			t.Errorf("%s: Pairs before the next period returns %d rows, want none", c.name, len(rows))
		}
		st, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pairs != 0 || st.Colocated != 0 || st.AchievedMbps != 0 || st.GuaranteedMbps != 0 {
			t.Errorf("%s: idle tenant reports %d pairs, %d colocated, %v Mbps achieved of %v guaranteed",
				c.name, st.Pairs, st.Colocated, st.AchievedMbps, st.GuaranteedMbps)
		}
		if rows := pairsOf(t, d, 1); len(rows) != 0 {
			t.Errorf("%s: Pairs returns %d rows, want none", c.name, len(rows))
		}
		for l, load := range d.linkLoad {
			if load != 0 {
				t.Errorf("%s: link %d carries %v Mbps of declared load, want 0", c.name, l, load)
			}
		}
	}
}

// TestSetDemandRememberedOrder: SetDemand recognises a declaration that
// lists the tenant's pairs in the order of its last accepted one and
// applies the loads without sorting; anything else takes the sorting
// path and is remembered in turn. Either way the outcome is the one a
// caller who pre-sorts every declaration gets: after each case the step
// report and every Pairs row are compared by bits against a second
// driver fed exactly that, and the remembered permutation must map the
// last accepted declaration onto the kept demands.
func TestSetDemandRememberedOrder(t *testing.T) {
	tree := topology.New(flatSpec(8, 1000))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := fig13Graph(3, 100) // VM 0 in C1, VMs 1..4 in C2
	d.Publish(admitEvent(1, g, spread(tree, g)))
	ref.Publish(admitEvent(1, g, spread(tree, g)))
	admitPair(2, tree, 6, 7, d, ref) // a bystander nothing here may move
	tn := d.tenants[1]
	presorted := func(ds []Demand) []Demand {
		if ds == nil {
			return nil
		}
		out := slices.Clone(ds)
		slices.SortFunc(out, func(a, b Demand) int {
			if a.Src != b.Src {
				return a.Src - b.Src
			}
			return a.Dst - b.Dst
		})
		return out
	}
	var accepted []Demand // the last declaration SetDemand took
	step := 0
	// declare feeds one declaration to both drivers (sorted for ref),
	// checks the flags it must leave on the tenant, runs a period on both
	// and compares everything observable.
	declare := func(name string, ds []Demand, wantErr, flowsDirty, dirty bool) {
		t.Helper()
		step++
		err := d.SetDemand(1, ds)
		refErr := ref.SetDemand(1, presorted(ds))
		if (err != nil) != wantErr || (refErr != nil) != wantErr {
			t.Fatalf("%s: SetDemand = %v, pre-sorted %v, want error %v", name, err, refErr, wantErr)
		}
		if wantErr && place.ReasonOf(err) != place.ReasonInvalidRequest {
			t.Errorf("%s: reason = %q, want invalid_request", name, place.ReasonOf(err))
		}
		if !wantErr {
			accepted = slices.Clone(ds)
		}
		if tn.flowsDirty != flowsDirty || tn.dirty != dirty || tn.queued != dirty {
			t.Errorf("%s: flowsDirty %v dirty %v queued %v, want %v %v %v", name, tn.flowsDirty, tn.dirty, tn.queued, flowsDirty, dirty, dirty)
		}
		if accepted != nil || tn.demands != nil {
			if len(tn.perm) != len(accepted) || len(tn.demands) != len(accepted) {
				t.Fatalf("%s: %d demands, permutation of %d, for a declaration of %d", name, len(tn.demands), len(tn.perm), len(accepted))
			}
			for i, dm := range accepted {
				if got := tn.demands[tn.perm[i]]; got.Src != dm.Src || got.Dst != dm.Dst || !feq(got.Mbps, dm.Mbps) {
					t.Errorf("%s: entry %d %+v is remembered as %+v", name, i, dm, got)
				}
			}
		}
		st, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		refSt, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Solved != refSt.Solved {
			t.Errorf("%s: period solved %d components, pre-sorted %d", name, st.Solved, refSt.Solved)
		}
		requireStatsIdentical(t, step, st, refSt)
		requirePairsIdentical(t, step, d, ref, st)
	}

	order := []Demand{{Src: 3, Dst: 1, Mbps: 30}, {Src: 0, Dst: 1, Mbps: 10}, {Src: 4, Dst: 1, Mbps: 40}, {Src: 2, Dst: 1, Mbps: 20}}
	with := func(ds []Demand, mbps ...float64) []Demand {
		out := slices.Clone(ds)
		for i, m := range mbps {
			out[i].Mbps = m
		}
		return out
	}
	other := []Demand{order[1], order[3], order[0], order[2]}
	declare("first declaration", order, false, true, true)
	declare("remembered order, loads move", with(order, 31, 11, 41, 21), false, false, true)
	declare("remembered order, verbatim", with(order, 31, 11, 41, 21), false, false, false)
	declare("remembered order, one load moves", with(order, 31, 11, 41, GreedyDemand), false, false, true)
	declare("another order, loads move", with(other, 12, 22, 32, 42), false, false, true)
	declare("that order again, verbatim", with(other, 12, 22, 32, 42), false, false, false)
	declare("the first order, no longer remembered", with(order, 32, 12, 42, 22), false, false, false)
	swapped := with(order, 33, 13, 43, 23)
	swapped[2] = Demand{Src: 1, Dst: 2, Mbps: 43}
	declare("same length, one pair swapped for another", swapped, false, true, true)
	twice := with(swapped, 1, 2, 3, 4)
	twice[3] = twice[0]
	declare("same length, one pair twice", twice, true, false, false)
	bad := with(swapped, 5, 6, 7, math.NaN())
	declare("remembered order, last entry invalid", bad, true, false, false)
	declare("remembered order after the rejections", with(swapped, 34, 14, 44, 24), false, false, true)
	declare("shorter", swapped[:3], false, true, true)
	declare("longer", append(with(swapped, 1, 2, 3, 4), Demand{Src: 0, Dst: 4, Mbps: 5}), false, true, true)
	declare("nil", nil, false, true, true)
	declare("empty after nil", []Demand{}, false, false, false)
	declare("pairs again", order, false, true, true)
	for _, drv := range []*Driver{d, ref} {
		drv.Publish(place.Event{Kind: place.EventResized, Key: 1, ID: 1, Graph: g, Placement: spread(tree, g)})
	}
	accepted = nil
	declare("remembered order after a resize", order, false, true, true)
	declare("and once more", with(order, 1, 2, 3, 4), false, false, true)
}

// TestSetDemandAllocs: refreshing a tenant's loads over the pairs and in
// the order of its last declaration — what a caller does every period —
// allocates nothing, whether or not a load moved.
func TestSetDemandAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	tree := topology.New(flatSpec(8, 1000))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := fig13Graph(3, 100)
	d.Publish(admitEvent(1, g, spread(tree, g)))
	ds := []Demand{{Src: 3, Dst: 1, Mbps: 30}, {Src: 0, Dst: 1, Mbps: 10}, {Src: 4, Dst: 1, Mbps: 40}, {Src: 2, Dst: 1, Mbps: 20}}
	if err := d.SetDemand(1, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ds[1].Mbps++
		if err := d.SetDemand(1, ds); err != nil {
			t.Fatal(err)
		}
		if err := d.SetDemand(1, ds); err != nil { // verbatim
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a same-pairs, same-order SetDemand allocates %v times, want 0", allocs)
	}
}
