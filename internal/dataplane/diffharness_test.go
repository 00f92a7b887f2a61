package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cloudmirror/internal/netem"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// This differential harness proves the incremental stepper correct:
// run the same trace through the optimized path and the brute-force
// path and require byte-identical observable state. Here
// the trace is a churn of admissions, resizes, releases, demand
// declarations, and control periods; the observable is the full
// StepStats transcript plus every tenant's row (Driver.AppendTenantStats)
// and per-pair rows (Driver.Pairs), compared Float64bits-for-Float64bits.

// diffTopo is a two-level tree with multi-slot servers, so placements
// mix colocated (nil-path) and fabric-crossing pairs and tenants
// placed under different ToRs fall into different components.
func diffTopo() *topology.Tree {
	return topology.New(topology.Spec{
		SlotsPerServer: 4,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 1000},
			{Name: "tor", Fanout: 4, Uplink: 4000},
		},
	})
}

// diffGraph builds a small random two- or three-tier TAG.
func diffGraph(rng *rand.Rand, id int) *tag.Graph {
	g := tag.New(fmt.Sprintf("t%d", id))
	tiers := 2 + rng.Intn(2)
	prev := -1
	for ti := 0; ti < tiers; ti++ {
		size := 1 + rng.Intn(3)
		cur := g.AddTier(fmt.Sprintf("tier%d", ti), size)
		if prev >= 0 {
			bw := float64(10 * (1 + rng.Intn(10)))
			g.AddEdge(prev, cur, bw, bw)
		}
		if rng.Intn(2) == 0 {
			g.AddSelfLoop(cur, float64(10*(1+rng.Intn(5))))
		}
		prev = cur
	}
	return g
}

// diffPlace places the graph's VMs on consecutive slots starting at a
// random server offset, wrapping around — adjacent tenants share
// servers and ToRs, distant ones do not, exercising component merges
// and splits as tenants come and go.
func diffPlace(rng *rand.Rand, tree *topology.Tree, g *tag.Graph) place.Placement {
	servers := tree.Servers()
	pl := make(place.Placement)
	si := rng.Intn(len(servers))
	slots := 0
	for t := 0; t < g.Tiers(); t++ {
		for k := 0; k < g.TierSize(t); k++ {
			pl.Add(servers[si], g.Tiers(), t, 1)
			slots++
			if slots%2 == 0 { // two VMs per server before moving on
				si = (si + 1) % len(servers)
			}
		}
	}
	return pl
}

// diffDemands draws a random demand set over the tenant's TAG-permitted
// pairs: a subset of pairs, each backlogged or finite.
func diffDemands(rng *rand.Rand, drv *Driver, key int64) []Demand {
	t := drv.tenants[key]
	full := defaultDemands(t.bind.Deployment())
	var ds []Demand
	for _, dm := range full {
		if rng.Intn(3) == 0 {
			continue // drop ~1/3 of the pairs
		}
		if rng.Intn(2) == 0 {
			dm.Mbps = float64(rng.Intn(400)) + 1
		}
		ds = append(ds, dm)
	}
	return ds
}

// feq compares two floats by their bits.
func feq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// tenantRows reads every tenant's row, in admission order.
func tenantRows(d *Driver) []TenantStats { return d.AppendTenantStats(nil) }

// requireStatsIdentical compares two drivers' step reports, and then
// every tenant's row through AppendTenantStats, bit-for-bit.
func requireStatsIdentical(t *testing.T, step int, inc, full *Driver, stInc, stFull *StepStats) {
	t.Helper()
	requireReportsIdentical(t, step, stInc, stFull)
	requireRowsIdentical(t, step, tenantRows(inc), tenantRows(full))
}

// requireReportsIdentical compares two step reports bit-for-bit. Solved
// is the one field allowed to differ: it is the effort, not the outcome.
func requireReportsIdentical(t *testing.T, step int, inc, full *StepStats) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("step %d diverged: %s", step, fmt.Sprintf(format, args...))
	}
	if inc.Tenants != full.Tenants {
		fail("tenant count %d != %d", inc.Tenants, full.Tenants)
	}
	if inc.Pairs != full.Pairs || inc.Colocated != full.Colocated || inc.Components != full.Components {
		fail("counts (%d,%d,%d) != (%d,%d,%d)", inc.Pairs, inc.Colocated, inc.Components,
			full.Pairs, full.Colocated, full.Components)
	}
	if !feq(inc.GuaranteedMbps, full.GuaranteedMbps) || !feq(inc.BaseMbps, full.BaseMbps) ||
		!feq(inc.AchievedMbps, full.AchievedMbps) || !feq(inc.SpareMbps, full.SpareMbps) ||
		!feq(inc.MinRatio, full.MinRatio) {
		fail("aggregates %+v != %+v", inc, full)
	}
}

// requireRowsIdentical compares two sets of tenant rows bit-for-bit.
func requireRowsIdentical(t *testing.T, step int, inc, full []TenantStats) {
	t.Helper()
	if len(inc) != len(full) {
		t.Fatalf("step %d diverged: %d tenant rows != %d", step, len(inc), len(full))
	}
	for i := range inc {
		a, b := &inc[i], &full[i]
		if a.Key != b.Key || a.ID != b.ID || a.Pairs != b.Pairs || a.Colocated != b.Colocated {
			t.Fatalf("step %d diverged: tenant %d identity/pair counts mismatch: %+v != %+v", step, i, a, b)
		}
		if !feq(a.GuaranteedMbps, b.GuaranteedMbps) || !feq(a.BaseMbps, b.BaseMbps) ||
			!feq(a.AchievedMbps, b.AchievedMbps) || !feq(a.SpareMbps, b.SpareMbps) ||
			!feq(a.MinRatio, b.MinRatio) {
			t.Fatalf("step %d diverged: tenant %d (key %d) aggregates differ: %+v != %+v", step, i, a.Key, a, b)
		}
	}
}

// pairsOf reads one tenant's per-pair rows.
func pairsOf(t *testing.T, d *Driver, key int64) []PairStats {
	t.Helper()
	ps, err := d.Pairs(key)
	if err != nil {
		t.Fatalf("Pairs(%d): %v", key, err)
	}
	return ps
}

// requirePairsIdentical compares every tenant's per-pair rows on two
// drivers bit-for-bit.
func requirePairsIdentical(t *testing.T, step int, inc, full *Driver) {
	t.Helper()
	for _, ts := range tenantRows(inc) {
		a, b := pairsOf(t, inc, ts.Key), pairsOf(t, full, ts.Key)
		if len(a) != len(b) {
			t.Fatalf("step %d tenant %d: %d rows != %d", step, ts.Key, len(a), len(b))
		}
		for j := range a {
			pa, pb := a[j], b[j]
			if pa.Src != pb.Src || pa.Dst != pb.Dst || pa.Colocated != pb.Colocated ||
				!feq(pa.Guarantee, pb.Guarantee) || !feq(pa.Demand, pb.Demand) || !feq(pa.Rate, pb.Rate) {
				t.Fatalf("step %d tenant %d pair %d: %+v != %+v", step, ts.Key, j, pa, pb)
			}
		}
	}
}

// requireAggregatesFoldPairs checks the report against the detail it
// was folded from: every tenant's row must equal, bit for bit, a fold
// over its Pairs rows in pair order, and the shard sums a fold over the
// tenants in admission order.
func requireAggregatesFoldPairs(t *testing.T, step int, d *Driver, st *StepStats) {
	t.Helper()
	sum := StepStats{MinRatio: 1}
	rows := tenantRows(d)
	if len(rows) != st.Tenants {
		t.Fatalf("step %d: report counts %d tenants, the driver serves %d rows", step, st.Tenants, len(rows))
	}
	for _, ts := range rows {
		want := TenantStats{Key: ts.Key, ID: ts.ID, MinRatio: 1}
		for _, p := range pairsOf(t, d, ts.Key) {
			if p.Colocated {
				want.Colocated++
				continue
			}
			want.Pairs++
			want.GuaranteedMbps += p.Guarantee
			want.AchievedMbps += p.Rate
			base := math.Min(p.Demand, p.Guarantee)
			want.BaseMbps += base
			if base > 0 && p.Rate/base < want.MinRatio {
				want.MinRatio = p.Rate / base
			}
		}
		want.SpareMbps = want.AchievedMbps - want.BaseMbps
		if ts.Pairs != want.Pairs || ts.Colocated != want.Colocated ||
			!feq(ts.GuaranteedMbps, want.GuaranteedMbps) || !feq(ts.BaseMbps, want.BaseMbps) ||
			!feq(ts.AchievedMbps, want.AchievedMbps) || !feq(ts.SpareMbps, want.SpareMbps) ||
			!feq(ts.MinRatio, want.MinRatio) {
			t.Fatalf("step %d tenant %d: cached aggregates %+v, fold over its pairs %+v", step, ts.Key, ts, want)
		}
		sum.Pairs += want.Pairs
		sum.Colocated += want.Colocated
		sum.GuaranteedMbps += want.GuaranteedMbps
		sum.BaseMbps += want.BaseMbps
		sum.AchievedMbps += want.AchievedMbps
		sum.SpareMbps += want.SpareMbps
		sum.MinRatio = math.Min(sum.MinRatio, want.MinRatio)
	}
	if st.Pairs != sum.Pairs || st.Colocated != sum.Colocated ||
		!feq(st.GuaranteedMbps, sum.GuaranteedMbps) || !feq(st.BaseMbps, sum.BaseMbps) ||
		!feq(st.AchievedMbps, sum.AchievedMbps) || !feq(st.SpareMbps, sum.SpareMbps) ||
		!feq(st.MinRatio, sum.MinRatio) {
		t.Fatalf("step %d: shard sums %+v, fold over the tenants %+v", step, st, sum)
	}
}

// requireCertified holds every tenant's last solve to the max-min
// certificate over the whole fabric: each enforced pair is the flow its
// solve handed the solver — path, declared demand, new limit, weight
// g+1 — at its cached rate. Components meet only on slack links, which
// never saturate, so the fleet-wide certificate is the one every
// component's solve must meet; the slack closed form meets it by
// construction, every rate at its cap.
func requireCertified(t *testing.T, step int, d *Driver) {
	t.Helper()
	var flows []netem.Flow
	var rates []float64
	for _, tn := range d.order {
		for j, pr := range tn.pairs {
			flows = append(flows, netem.Flow{Path: tn.paths[j], Demand: pr.Demand, Limit: tn.limits[j], Weight: tn.guarantees[j] + 1})
		}
		rates = append(rates, tn.rates...)
	}
	if err := netem.Check(d.fabCaps, flows, rates); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// runDifferential drives an incremental and a full-recompute driver
// through one identical random trace, comparing every step transcript.
// It returns how many component solves each driver performed.
func runDifferential(t *testing.T, seed int64, steps int, alpha float64) (incSolves, fullSolves int) {
	t.Helper()
	tree := diffTopo()
	inc, err := New(tree, Config{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	full, err := newFullRecompute(tree, Config{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var live []int64
	nextKey := int64(1)
	apply := func(ev place.Event) {
		inc.Publish(ev)
		full.Publish(ev)
	}

	for step := 0; step < steps; step++ {
		// Random churn between control periods.
		for _, op := range []int{rng.Intn(4), rng.Intn(4)} {
			switch {
			case op == 0 || len(live) == 0: // admit
				g := diffGraph(rng, int(nextKey))
				pl := diffPlace(rng, tree, g)
				apply(admitEvent(nextKey, g, pl))
				live = append(live, nextKey)
				nextKey++
			case op == 1 && len(live) > 1: // release
				i := rng.Intn(len(live))
				apply(place.Event{Kind: place.EventReleased, Key: live[i]})
				live = append(live[:i], live[i+1:]...)
			case op == 2: // resize: rebind the same tenant elsewhere
				i := rng.Intn(len(live))
				g := diffGraph(rng, int(live[i]))
				pl := diffPlace(rng, tree, g)
				apply(place.Event{Kind: place.EventResized, Key: live[i], ID: live[i], Graph: g, Placement: pl})
			default: // declare demands for a random live tenant
				i := rng.Intn(len(live))
				ds := diffDemands(rng, inc, live[i])
				if err := inc.SetDemand(live[i], ds); err != nil {
					t.Fatalf("step %d: inc SetDemand: %v", step, err)
				}
				if err := full.SetDemand(live[i], ds); err != nil {
					t.Fatalf("step %d: full SetDemand: %v", step, err)
				}
			}
		}

		// A few quiet periods after each churn burst let limiters
		// converge, driving components settled so the incremental path
		// actually exercises its skip-and-splice branch.
		quiet := 1 + rng.Intn(4)
		for q := 0; q < quiet; q++ {
			stInc, err := inc.Step()
			if err != nil {
				t.Fatalf("step %d: incremental: %v", step, err)
			}
			stFull, err := full.Step()
			if err != nil {
				t.Fatalf("step %d: full: %v", step, err)
			}
			requireStatsIdentical(t, step, inc, full, stInc, stFull)
			requirePairsIdentical(t, step, inc, full)
			requireAggregatesFoldPairs(t, step, inc, stInc)
			requireAggregatesFoldPairs(t, step, full, stFull)
			requireCertified(t, step, inc)
			requireCertified(t, step, full)
			incSolves += stInc.Solved
			fullSolves += stFull.Solved
			if stFull.Solved != stFull.Components {
				t.Fatalf("step %d: full recompute solved %d of %d components", step, stFull.Solved, stFull.Components)
			}
			if s, c := inc.SolveStats(); s != stInc.Solved || c != stInc.Components {
				t.Fatalf("step %d: SolveStats (%d,%d) disagrees with the report (%d,%d)", step, s, c, stInc.Solved, stInc.Components)
			}
		}
	}
	return incSolves, fullSolves
}

// TestDifferentialIncrementalMatchesFull is the harness at alpha 1
// (limiters jump to target, components settle in a solve or two): the
// incremental driver must produce byte-identical transcripts while
// solving strictly fewer components than the full recompute.
func TestDifferentialIncrementalMatchesFull(t *testing.T) {
	steps := 40
	if testing.Short() {
		steps = 12
	}
	for seed := int64(1); seed <= 4; seed++ {
		incSolves, fullSolves := runDifferential(t, seed, steps, 1)
		if incSolves >= fullSolves {
			t.Errorf("seed %d: incremental solved %d components, full %d — nothing was skipped",
				seed, incSolves, fullSolves)
		}
	}
}

// TestDifferentialSmoothedLimiters re-runs the harness at alpha 0.3,
// where limiters approach targets geometrically and settledness must
// wait for the floating-point fixed point.
func TestDifferentialSmoothedLimiters(t *testing.T) {
	steps := 25
	if testing.Short() {
		steps = 8
	}
	runDifferential(t, 99, steps, 0.3)
}

// TestDifferentialConverge checks the other stepping entry point:
// Converge transcripts must agree between modes too.
func TestDifferentialConverge(t *testing.T) {
	tree := diffTopo()
	inc, err := New(tree, Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	full, err := newFullRecompute(tree, Config{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for k := int64(1); k <= 6; k++ {
		g := diffGraph(rng, int(k))
		pl := diffPlace(rng, tree, g)
		ev := admitEvent(k, g, pl)
		inc.Publish(ev)
		full.Publish(ev)
	}
	stInc, itInc, err := inc.Converge(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	stFull, itFull, err := full.Converge(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if itInc != itFull {
		t.Fatalf("converged in %d (incremental) vs %d (full) iterations", itInc, itFull)
	}
	requireStatsIdentical(t, 0, inc, full, stInc, stFull)
	requirePairsIdentical(t, 0, inc, full)
}

// scratchLinkLoads folds every link's declared load from the tenants'
// current pairs and paths alone — each tenant's contribution in (pair,
// path) order, contributions in admission order — with none of the
// driver's kept state: what a driver rebuilt from scratch would hold.
func scratchLinkLoads(d *Driver) []float64 {
	loads := make([]float64, len(d.fabCaps))
	for _, tn := range d.order {
		own := make(map[netem.LinkID]float64)
		for i, pr := range tn.pairs {
			for _, l := range tn.paths[i] {
				own[l] += pr.Demand
			}
		}
		for _, l := range tn.links {
			loads[l] += own[l]
		}
	}
	return loads
}

// requireLinkLoadsFromScratch brings the driver's kept link loads up to
// date (a period's first phase) and requires them, and the adjacency
// they were refolded from, to equal a from-scratch fold bit for bit.
func requireLinkLoadsFromScratch(t *testing.T, when string, d *Driver) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.prepare()
	want := scratchLinkLoads(d)
	for l := range want {
		if !feq(d.linkLoad[l], want[l]) {
			t.Fatalf("%s: link %d holds load %v, a from-scratch fold gives %v", when, l, d.linkLoad[l], want[l])
		}
	}
	crossing := make([]int, len(want))
	for _, tn := range d.order {
		for at, l := range tn.links {
			refs := d.linkTenants[l]
			if i := crossing[l]; i >= len(refs) || refs[i].t != tn || int(refs[i].at) != at {
				t.Fatalf("%s: link %d's adjacency does not list tenant %d at rank %d", when, l, tn.key, i)
			}
			crossing[l]++
		}
	}
	for l, refs := range d.linkTenants {
		if len(refs) != crossing[l] {
			t.Fatalf("%s: link %d's adjacency lists %d tenants, %d cross it", when, l, len(refs), crossing[l])
		}
	}
}

// TestDifferentialLinkLoads: link loads are kept across periods and
// refolded only where a declaration changed, yet stay a pure function of
// the current declarations — after every event of a random
// admit/resize/release/redeclare trace, and after every period, the
// kept loads equal a from-scratch fold, and a second driver that only
// ever saw the surviving tenants' final state (what crash recovery
// builds) holds the same bits and reports the same period.
func TestDifferentialLinkLoads(t *testing.T) {
	steps := 30
	if testing.Short() {
		steps = 12
	}
	for seed := int64(1); seed <= 6; seed++ {
		tree := diffTopo()
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		type liveTenant struct {
			key     int64
			ev      place.Event
			demands []Demand // nil: undeclared since the last (re)install
		}
		var live []*liveTenant
		nextKey := int64(1)
		for step := 0; step < steps; step++ {
			for _, op := range []int{rng.Intn(5), rng.Intn(5), rng.Intn(5)} {
				when := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
				switch {
				case op == 0 || len(live) == 0:
					g := diffGraph(rng, int(nextKey))
					lt := &liveTenant{key: nextKey, ev: admitEvent(nextKey, g, diffPlace(rng, tree, g))}
					d.Publish(lt.ev)
					live = append(live, lt)
					nextKey++
				case op == 1 && len(live) > 1:
					i := rng.Intn(len(live))
					d.Publish(place.Event{Kind: place.EventReleased, Key: live[i].key})
					live = append(live[:i], live[i+1:]...)
				case op == 2:
					lt := live[rng.Intn(len(live))]
					g := diffGraph(rng, int(lt.key))
					ev := place.Event{Kind: place.EventResized, Key: lt.key, ID: lt.key, Graph: g, Placement: diffPlace(rng, tree, g)}
					d.Publish(ev)
					ev.Kind = place.EventAdmitted
					lt.ev, lt.demands = ev, nil
				default:
					lt := live[rng.Intn(len(live))]
					if op == 4 && lt.demands != nil {
						// The same pairs at other loads: no flow refresh.
						lt.demands = append([]Demand(nil), lt.demands...)
						for i := range lt.demands {
							lt.demands[i].Mbps = float64(1 + rng.Intn(900))
						}
					} else {
						lt.demands = oracleDemands(rng, d, lt.key)
					}
					if err := d.SetDemand(lt.key, lt.demands); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				requireLinkLoadsFromScratch(t, when, d)
			}
			st, err := d.Step()
			if err != nil {
				t.Fatal(err)
			}
			when := fmt.Sprintf("seed %d after period %d", seed, step)
			requireLinkLoadsFromScratch(t, when, d)

			// A driver that never saw the history: the survivors, in
			// admission order, with their current declarations.
			fresh, err := New(tree, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, lt := range live {
				fresh.Publish(lt.ev)
				if lt.demands != nil {
					if err := fresh.SetDemand(lt.key, lt.demands); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireLinkLoadsFromScratch(t, when+" (rebuilt)", fresh)
			for l := range d.linkLoad {
				if !feq(d.linkLoad[l], fresh.linkLoad[l]) {
					t.Fatalf("%s: link %d: kept load %v, rebuilt driver's %v", when, l, d.linkLoad[l], fresh.linkLoad[l])
				}
			}
			stFresh, err := fresh.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.Components != stFresh.Components {
				t.Fatalf("%s: %d components, the rebuilt driver finds %d", when, st.Components, stFresh.Components)
			}
		}
	}
}
