package dataplane

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// These tests pin the contention-aware decomposition: tenants share a
// component only through links their declared demand can fill. The
// whole-fabric oracle below exists only here — the driver has one
// decomposition and no switch to select another.

// rackTree is a two-level tree of one-slot servers: serversPerTor under
// each of tors ToRs, so a tenant's VMs sit on distinct servers and two
// tenants meet only on ToR uplinks.
func rackTree(serversPerTor, tors int, serverUp, torUp float64) *topology.Tree {
	return topology.New(topology.Spec{
		SlotsPerServer: 1,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: serversPerTor, Uplink: serverUp},
			{Name: "tor", Fanout: tors, Uplink: torUp},
		},
	})
}

// hosePair is a two-VM tenant with a 100 Mbps intra-tier hose: VM 0 on
// the lower-numbered server, VM 1 on the other.
func hosePair() *tag.Graph {
	g := tag.New("pair")
	g.AddSelfLoop(g.AddTier("a", 2), 100)
	return g
}

// admitPair installs a hosePair tenant with its VMs on servers a < b.
func admitPair(key int64, tree *topology.Tree, a, b int, drivers ...*Driver) {
	pl := make(place.Placement)
	pl.Add(tree.Servers()[a], 1, 0, 1)
	pl.Add(tree.Servers()[b], 1, 0, 1)
	ev := admitEvent(key, hosePair(), pl)
	for _, d := range drivers {
		d.Publish(ev)
	}
}

// send declares a tenant's single forward flow (VM 0 → VM 1) on every
// driver.
func send(t *testing.T, key int64, mbps float64, drivers ...*Driver) {
	t.Helper()
	for _, d := range drivers {
		if err := d.SetDemand(key, []Demand{{Src: 0, Dst: 1, Mbps: mbps}}); err != nil {
			t.Fatal(err)
		}
	}
}

// structuralComponents counts the components of the purely structural
// decomposition — tenants sharing any fabric link, whatever its load —
// from the driver's current flow state.
func structuralComponents(d *Driver) int {
	parent := make([]int, len(d.order))
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
	owner := make(map[netem.LinkID]int)
	for ti, tn := range d.order {
		for _, l := range tn.links {
			if o, ok := owner[l]; ok {
				parent[find(ti)] = find(o)
			} else {
				owner[l] = ti
			}
		}
	}
	n := 0
	for i := range parent {
		if find(i) == i {
			n++
		}
	}
	return n
}

// pendingComponents materializes the structure the next Step will see
// (exactly its phase 1, which the step then finds already done) and
// counts the components holding a dirty or unsettled tenant — the most
// that step may solve. rebuilt reports whether bringing the structure
// up to date took a rebuild.
func pendingComponents(d *Driver) (n int, rebuilt bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refreshLoads()
	rebuilt = d.structureDirty
	d.prepare()
	for _, c := range d.comps {
		for _, t := range c.members {
			if t.dirty || !t.settled {
				n++
				break
			}
		}
	}
	return n, rebuilt
}

// oracle is the whole-fabric reference: every tenant's pairs as one
// GP → RA → limiter → max-min problem, no decomposition at all. It
// keeps its own limiter state, keyed like the driver's carry-over.
type oracle struct {
	alpha  float64
	limits map[oracleKey]float64
	ra     enforce.RA
	solver netem.Solver
}

type oracleKey struct {
	tenant   int64
	src, dst int
}

// forget drops a tenant's limiter state (admission, resize: the VM set
// changed, pairs restart at their guarantees).
func (o *oracle) forget(tenant int64) {
	for k := range o.limits {
		if k.tenant == tenant {
			delete(o.limits, k)
		}
	}
}

// step solves one control period over the driver's current tenants and
// returns the achieved rate of every enforced pair. Call it after the
// driver's own Step, so the flow state it reads is materialized.
func (o *oracle) step(t *testing.T, d *Driver) map[oracleKey]float64 {
	t.Helper()
	var (
		keys       []oracleKey
		pairs      []enforce.Pair
		paths      [][]netem.LinkID
		guarantees []float64
	)
	for _, tn := range d.order {
		for _, pr := range tn.pairs {
			keys = append(keys, oracleKey{tn.key, pr.Src, pr.Dst})
		}
		pairs = append(pairs, tn.pairs...)
		paths = append(paths, tn.paths...)
		guarantees = enforce.AppendGuarantees(guarantees, tn.gp, tn.pairs)
	}
	targets, err := o.ra.Alloc(d.fab.Network(), pairs, paths, guarantees)
	if err != nil {
		t.Fatalf("oracle RA: %v", err)
	}
	next := make(map[oracleKey]float64, len(keys))
	flows := make([]netem.Flow, len(pairs))
	for i, k := range keys {
		cur, seen := o.limits[k]
		if !seen {
			cur = guarantees[i]
		}
		next[k] = cur + o.alpha*(targets[i]-cur)
		flows[i] = netem.Flow{Path: paths[i], Demand: pairs[i].Demand, Limit: next[k], Weight: guarantees[i] + 1}
	}
	o.limits = next
	rates, err := o.solver.MaxMin(d.fab.Network(), flows, nil)
	if err != nil {
		t.Fatalf("oracle max-min: %v", err)
	}
	out := make(map[oracleKey]float64, len(keys))
	for i, k := range keys {
		out[k] = rates[i]
	}
	return out
}

// oracleDemands draws a declaration in one of three load regimes: every
// pair small and finite (its links stay slack; half the draws), every
// pair large and finite (sums reach capacity), or a Greedy/finite mix.
func oracleDemands(rng *rand.Rand, d *Driver, key int64) []Demand {
	full := defaultDemands(d.tenants[key].bind.Deployment())
	mode := rng.Intn(4)
	var ds []Demand
	for _, dm := range full {
		if rng.Intn(4) == 0 {
			continue
		}
		switch {
		case mode <= 1:
			dm.Mbps = float64(1 + rng.Intn(60))
		case mode == 2:
			dm.Mbps = float64(100 + rng.Intn(800))
		case rng.Intn(2) == 0:
			dm.Mbps = float64(1 + rng.Intn(400))
		}
		ds = append(ds, dm)
	}
	return ds
}

// TestDifferentialWholeFabricOracle: over admit/resize/release/redeclare
// traces mixing Greedy and finite loads, the driver's per-component
// solves agree with one solve over the whole fabric to 1e-6 Mbps per
// pair — splitting at slack links may move a rate inside the solver's
// 1e-9 freeze band, never further.
func TestDifferentialWholeFabricOracle(t *testing.T) {
	seeds, steps := 24, 20
	if testing.Short() {
		seeds, steps = 20, 12
	}
	finer, merged := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		alpha := 1.0
		if seed%2 == 0 {
			alpha = 0.3
		}
		tree := diffTopo()
		d, err := New(tree, Config{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		ref := &oracle{alpha: alpha}
		rng := rand.New(rand.NewSource(seed))
		var live []int64
		nextKey := int64(1)
		for step := 0; step < steps; step++ {
			for _, op := range []int{rng.Intn(5), rng.Intn(5)} {
				var k int64
				switch {
				case op == 0 || len(live) == 0:
					k = nextKey
					g := diffGraph(rng, int(k))
					d.Publish(admitEvent(k, g, diffPlace(rng, tree, g)))
					live = append(live, k)
					nextKey++
				case op == 1 && len(live) > 1:
					i := rng.Intn(len(live))
					d.Publish(place.Event{Kind: place.EventReleased, Key: live[i]})
					live = append(live[:i], live[i+1:]...)
					continue
				case op == 2:
					k = live[rng.Intn(len(live))]
					g := diffGraph(rng, int(k))
					d.Publish(place.Event{Kind: place.EventResized, Key: k, ID: k, Graph: g, Placement: diffPlace(rng, tree, g)})
					ref.forget(k)
				default:
					k = live[rng.Intn(len(live))]
				}
				// Most tenants declare right away; the rest stay on the
				// backlogged default until a later redeclaration.
				if op >= 3 || rng.Intn(4) > 0 {
					if err := d.SetDemand(k, oracleDemands(rng, d, k)); err != nil {
						t.Fatalf("seed %d step %d: SetDemand: %v", seed, step, err)
					}
				}
			}
			for q := 1 + rng.Intn(3); q > 0; q-- {
				st, err := d.Step()
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				want := ref.step(t, d)
				for _, ts := range st.Tenants {
					for _, p := range pairsOf(t, d, ts.Key) {
						if p.Colocated {
							continue
						}
						w := want[oracleKey{ts.Key, p.Src, p.Dst}]
						if !(math.Abs(p.Rate-w) <= 1e-6) {
							t.Fatalf("seed %d step %d tenant %d pair (%d,%d): driver %v Mbps, whole-fabric %v",
								seed, step, ts.Key, p.Src, p.Dst, p.Rate, w)
						}
					}
				}
				comps := st.Components
				if structural := structuralComponents(d); comps > structural {
					finer++
				} else if comps < structural {
					t.Fatalf("seed %d step %d: %d components, coarser than the structural %d", seed, step, comps, structural)
				}
				for l, load := range d.linkLoad {
					if !math.IsInf(load, 1) && d.contended(netem.LinkID(l)) {
						merged++
						break
					}
				}
			}
		}
	}
	// The traces must have exercised both sides of the definition.
	t.Logf("finer=%d merged=%d", finer, merged)
	if finer == 0 {
		t.Error("no period split a structural component at a slack link")
	}
	if merged == 0 {
		t.Error("no period had a link contended by finite loads alone")
	}
}

// TestDifferentialContentionCycle drives one ToR uplink slack →
// contended → just short of capacity → slack through a single tenant's
// redeclarations: its
// component merges with the bystander's and splits again, the
// bystander's rate moves only while the link is contended, a far-away
// tenant is never re-solved, the structure is rebuilt on exactly the
// periods where the uplink changed sides of the contended threshold,
// and incremental and full-recompute transcripts stay byte-identical
// throughout.
func TestDifferentialContentionCycle(t *testing.T) {
	tree := rackTree(2, 4, 1000, 1000)
	inc, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := newFullRecompute(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Tenants 1 and 2 both send tor0 → tor1 (sharing tor0's uplink and
	// tor1's downlink, nothing else); tenant 3 sends tor2 → tor3.
	admitPair(1, tree, 0, 2, inc, full)
	admitPair(2, tree, 1, 3, inc, full)
	admitPair(3, tree, 4, 6, inc, full)
	send(t, 2, 600, inc, full)
	send(t, 3, 50, inc, full)

	period := 0
	// step runs one period on both drivers and returns the bystander's
	// (tenant 2's) rate and the incremental driver's solve stats.
	// wantRebuild says whether the period has to rebuild the structure:
	// one that saw no membership event and no flipped link must not.
	step := func(wantRebuild bool) (rate float64, solved, comps int) {
		t.Helper()
		period++
		pending, rebuilt := pendingComponents(inc)
		if rebuilt != wantRebuild {
			t.Fatalf("period %d: structure rebuilt = %v, want %v", period, rebuilt, wantRebuild)
		}
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
		solved, comps = stInc.Solved, stInc.Components
		if solved > pending {
			t.Fatalf("period %d: solved %d components, only %d held a dirty or unsettled tenant", period, solved, pending)
		}
		return pairsOf(t, inc, 2)[0].Rate, solved, comps
	}
	// settle steps until nothing is left to solve; quiet periods never
	// rebuild.
	settle := func() {
		t.Helper()
		for i := 0; i < 5; i++ {
			if _, solved, _ := step(false); solved == 0 {
				return
			}
		}
		t.Fatalf("period %d: not settled after 5 quiet periods", period)
	}

	// The first period installs three tenants: membership events.
	send(t, 1, 200, inc, full)
	step(true)
	settle()
	for cycle := 0; cycle < 2; cycle++ {
		// Slack: 300 + 600 < 1000. Three components; the bystander gets
		// its whole demand. Coming from 200 Mbps only the redeclared
		// tenant re-solves; coming from the merged component both halves
		// of the split do. The far tenant never does.
		wantSolved := 1
		if cycle > 0 {
			wantSolved = 2
		}
		send(t, 1, 300, inc, full)
		if rate, solved, comps := step(cycle > 0); comps != 3 || solved != wantSolved || rate != 600 {
			t.Fatalf("cycle %d slack: %d/%d solved, bystander %v; want %d/3 and 600", cycle, solved, comps, rate, wantSolved)
		}
		settle()

		// A redeclaration that keeps the link slack re-solves only its
		// own component, and leaves the structure alone.
		send(t, 1, 350, inc, full)
		if rate, solved, comps := step(false); comps != 3 || solved != 1 || rate != 600 {
			t.Fatalf("cycle %d slack redeclare: %d/%d solved, bystander %v; want 1/3 and 600", cycle, solved, comps, rate)
		}
		settle()

		// Contended: 700 + 600 > 1000. The two merge; both get their 100
		// Mbps guarantee plus half the remaining 800.
		send(t, 1, 700, inc, full)
		rate, solved, comps := step(true)
		if comps != 2 || solved != 1 {
			t.Fatalf("cycle %d contended: %d/%d solved; want 1/2", cycle, solved, comps)
		}
		if math.Abs(rate-500) > 1e-6 {
			t.Fatalf("cycle %d contended: bystander at %v Mbps, want 500", cycle, rate)
		}
		settle()

		// Inside the margin band: 400 − 5e-7 + 600 is short of capacity but
		// within the contended margins of it. The link stays contended (no
		// rebuild, still merged), and the solver's "every cap fits" test,
		// which shares those margins, leaves the solve to the event loop
		// where every slack period above took the early return — which
		// finds room for both demands all the same.
		send(t, 1, 400-5e-7, inc, full)
		rate, solved, comps = step(false)
		if comps != 2 || solved != 1 {
			t.Fatalf("cycle %d margin band: %d/%d solved; want 1/2", cycle, solved, comps)
		}
		if own := pairsOf(t, inc, 1)[0].Rate; math.Abs(rate-600) > 1e-6 || math.Abs(own-400) > 1e-6 {
			t.Fatalf("cycle %d margin band: rates %v and %v Mbps, want 400 and 600", cycle, own, rate)
		}
		settle()
	}
}

// TestDifferentialContentionBoundaries pins the edges of the contended
// predicate: a declared load exactly at capacity (or within the
// solver's margins of it) couples, one Greedy flow couples every link
// on its path, and an all-undeclared fleet decomposes structurally.
func TestDifferentialContentionBoundaries(t *testing.T) {
	components := func(d *Driver) int {
		t.Helper()
		st, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		return st.Components
	}

	t.Run("load at capacity", func(t *testing.T) {
		tree := rackTree(2, 2, 1000, 1000)
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		admitPair(1, tree, 0, 2, d)
		admitPair(2, tree, 1, 3, d)
		send(t, 1, 400, d)
		for _, c := range []struct {
			mbps float64
			want int
		}{
			{599, 2},        // 999 of 1000: slack
			{600, 1},        // exactly at capacity: contended
			{600 - 1e-7, 1}, // inside the margins: still contended
			{600 - 1e-3, 2}, // clear of them: slack
			{601, 1},
		} {
			send(t, 2, c.mbps, d)
			if got := components(d); got != c.want {
				t.Errorf("400 + %v Mbps on a 1000 Mbps uplink: %d components, want %d", c.mbps, got, c.want)
			}
		}
	})

	t.Run("fold order", func(t *testing.T) {
		// Three tenants with 3, 2 and 1 flows over the same ToR uplink,
		// offering decimal loads no float holds exactly, which sum (in the
		// reals) to its 1000 Mbps. A link's load is the sum of per-tenant
		// subtotals, so its last bits can differ from a flat fold over all
		// six flows; the decision may not, since the margins dwarf an ulp.
		tree := rackTree(6, 2, 1000, 1000)
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for key, servers := range [][]int{{0, 1, 2, 6}, {3, 4, 7}, {5, 8}} {
			g := tag.New("fan-in")
			g.AddSelfLoop(g.AddTier("a", len(servers)), 100)
			pl := make(place.Placement)
			for _, s := range servers {
				pl.Add(tree.Servers()[s], 1, 0, 1)
			}
			d.Publish(admitEvent(int64(key+1), g, pl))
		}
		one := []Demand{{Src: 0, Dst: 3, Mbps: 100.1}, {Src: 1, Dst: 3, Mbps: 200.2}, {Src: 2, Dst: 3, Mbps: 150.3}}
		two := []Demand{{Src: 0, Dst: 2, Mbps: 99.7}, {Src: 1, Dst: 2, Mbps: 149.9}}
		if err := errors.Join(d.SetDemand(1, one), d.SetDemand(2, two)); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			mbps float64
			want int
		}{
			{299.7, 3},        // 999.9 of 1000: slack
			{299.8, 1},        // exactly at capacity: contended
			{299.8 - 1e-7, 1}, // inside the margins: still contended
			{299.8 - 1e-3, 3}, // clear of them: slack
		} {
			send(t, 3, c.mbps, d)
			if got := components(d); got != c.want {
				t.Errorf("450.6 + 249.6 + %v Mbps on a 1000 Mbps uplink: %d components, want %d", c.mbps, got, c.want)
			}
			nested := (one[0].Mbps + one[1].Mbps + one[2].Mbps) + (two[0].Mbps + two[1].Mbps) + c.mbps
			flat := one[0].Mbps + one[1].Mbps + one[2].Mbps + two[0].Mbps + two[1].Mbps + c.mbps
			shared := 0
			for l, refs := range d.linkTenants {
				if len(refs) != 3 {
					continue
				}
				shared++
				if !feq(d.linkLoad[l], nested) {
					t.Errorf("link %d carries %v Mbps, want the per-tenant fold %v", l, d.linkLoad[l], nested)
				}
				threshold := d.fabCaps[l]*(1-contendedRel) - contendedAbs
				if (flat > threshold) != d.contended(netem.LinkID(l)) {
					t.Errorf("link %d at %v Mbps: a flat fold (%v) would decide contention the other way", l, nested, flat)
				}
			}
			if shared != 2 {
				t.Fatalf("%d links carry all three tenants, want the ToR uplink and the downlink opposite", shared)
			}
		}
	})

	t.Run("greedy path", func(t *testing.T) {
		// Tenant 1 sends s0 → s4 across the root. Tenants 2–4 each cross
		// a different stretch of that path with a trickle; tenant 5 shares
		// a server uplink with tenant 3 but no link with tenant 1.
		tree := topology.New(topology.Spec{
			SlotsPerServer: 2,
			Levels: []topology.LevelSpec{
				{Name: "server", Fanout: 4, Uplink: 1000},
				{Name: "tor", Fanout: 2, Uplink: 1000},
			},
		})
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		admitPair(1, tree, 0, 4, d) // s0/up, tor0/up, tor1/down, s4/down
		admitPair(2, tree, 0, 1, d) // s0/up, s1/down
		admitPair(3, tree, 2, 6, d) // s2/up, tor0/up, tor1/down, s6/down
		admitPair(4, tree, 4, 5, d) // reversed below: s5/up, s4/down
		admitPair(5, tree, 2, 3, d) // s2/up, s3/down
		for key := int64(2); key <= 5; key++ {
			send(t, key, 1, d)
		}
		if err := d.SetDemand(4, []Demand{{Src: 1, Dst: 0, Mbps: 1}}); err != nil {
			t.Fatal(err)
		}
		send(t, 1, netem.Greedy, d)
		if got := components(d); got != 2 {
			t.Errorf("one Greedy flow across the root: %d components, want 2 (every link on its path contended)", got)
		}
		send(t, 1, 1, d)
		if got := components(d); got != 5 {
			t.Errorf("the same fleet at a trickle: %d components, want 5", got)
		}
	})

	t.Run("undeclared fleet", func(t *testing.T) {
		tree := diffTopo()
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for key := int64(1); key <= 10; key++ {
			g := diffGraph(rng, int(key))
			d.Publish(admitEvent(key, g, diffPlace(rng, tree, g)))
		}
		got := components(d)
		if want := structuralComponents(d); got != want {
			t.Errorf("all-undeclared fleet: %d components, structural decomposition has %d", got, want)
		}
	})
}

// TestDifferentialSlackLinkParallel solves components that share slack
// links concurrently: eight tenants cross the same ToR uplink and
// downlink without filling them, every one redeclares every period, and
// the solves fan out over four workers. Under -race this is the proof
// that a shared slack link is only ever read.
func TestDifferentialSlackLinkParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const tenants = 8
	tree := rackTree(tenants, 2, 1000, 10000)
	inc, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := newFullRecompute(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < tenants; k++ {
		admitPair(int64(k+1), tree, k, tenants+k, inc, full)
	}
	rng := rand.New(rand.NewSource(11))
	for period := 0; period < 30; period++ {
		for k := 0; k < tenants; k++ {
			send(t, int64(k+1), float64(100+rng.Intn(900)), inc, full)
		}
		stInc, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		stFull, err := full.Step()
		if err != nil {
			t.Fatal(err)
		}
		requireStatsIdentical(t, period, stInc, stFull)
		if solved, comps := stInc.Solved, stInc.Components; solved != tenants || comps != tenants {
			t.Fatalf("period %d: solved %d of %d components, want %d of %d", period, solved, comps, tenants, tenants)
		}
		for _, ts := range stInc.Tenants {
			if p := pairsOf(t, inc, ts.Key)[0]; p.Rate != p.Demand {
				t.Fatalf("period %d tenant %d: %v of %v Mbps on an uncontended path", period, ts.Key, p.Rate, p.Demand)
			}
		}
	}
}

// TestRebuildComponentsAllocs: a structure rebuild runs every period
// that saw a redeclaration, so once its scratch is sized it must not
// allocate.
func TestRebuildComponentsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	tree := diffTopo()
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for key := int64(1); key <= 12; key++ {
		g := diffGraph(rng, int(key))
		d.Publish(admitEvent(key, g, diffPlace(rng, tree, g)))
		if err := d.SetDemand(key, oracleDemands(rng, d, key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, d.rebuildComponents); allocs != 0 {
		t.Errorf("rebuildComponents allocates %v times per steady-state call, want 0", allocs)
	}
}

// TestStepReportCallerOwned: a report and a Pairs slice belong to the
// caller — the driver fills them from its caches and keeps no reference,
// so scribbling over either never shows in the next one, and a later
// period never rewrites an earlier report.
func TestStepReportCallerOwned(t *testing.T) {
	tree := rackTree(32, 2, 1000, 1000)
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	admitPair(1, tree, 0, 32, d)
	admitPair(2, tree, 1, 33, d)
	// An undeclared 6-VM hose sends all-to-all: 30 flows.
	g := tag.New("hose")
	g.AddSelfLoop(g.AddTier("a", 6), 10)
	pl := make(place.Placement)
	for i := 0; i < 6; i++ {
		pl.Add(tree.Servers()[2+i], 1, 0, 1)
	}
	d.Publish(admitEvent(3, g, pl))
	send(t, 1, 300, d)
	send(t, 2, 200, d)
	first, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 1, 30} {
		ts := first.Tenants[i]
		rows := pairsOf(t, d, ts.Key)
		if ts.Pairs != want || ts.Colocated != 0 || len(rows) != want {
			t.Fatalf("tenant %d reports %d+%d flows in %d rows, want %d enforced", ts.Key, ts.Pairs, ts.Colocated, len(rows), want)
		}
	}
	if first.Pairs != 32 || first.Colocated != 0 {
		t.Fatalf("report counts %d+%d flows, want 32 enforced", first.Pairs, first.Colocated)
	}
	kept := *first
	kept.Tenants = append([]TenantStats(nil), first.Tenants...)

	// Scribble over a returned Pairs slice and a returned report: the
	// next ones are read from the driver's caches, not from these.
	rows := pairsOf(t, d, 2)
	rows[0] = PairStats{Src: 9, Dst: 9, Rate: -1}
	if again := pairsOf(t, d, 2); again[0].Rate != 200 || again[0].Src != 0 || again[0].Dst != 1 {
		t.Fatalf("mutating a returned Pairs slice showed in the next: %+v", again[0])
	}
	first.Tenants[1] = TenantStats{Key: 99, AchievedMbps: -1}
	first.AchievedMbps = -1
	second, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	requireStatsIdentical(t, 2, second, &kept)

	// A later period with other rates leaves the earlier report alone.
	send(t, 2, 250, d)
	third, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := third.Tenants[1].AchievedMbps; got != 250 {
		t.Fatalf("tenant 2 achieves %v Mbps after redeclaring 250", got)
	}
	if got := second.Tenants[1].AchievedMbps; got != 200 {
		t.Fatalf("a later step rewrote an earlier report: tenant 2 at %v Mbps, want 200", got)
	}
}
