package dataplane

import (
	"errors"
	"math"
	"testing"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// flatSpec builds n one-slot servers under the root, each with the
// given uplink — every VM lands on its own server, so one receiver's
// downlink is the single bottleneck, the Fig. 13 shape.
func flatSpec(n int, uplink float64) topology.Spec {
	return topology.Spec{
		SlotsPerServer: 1,
		Levels:         []topology.LevelSpec{{Name: "server", Fanout: n, Uplink: uplink}},
	}
}

// fig13Graph is the Fig. 13(a) TAG: tier C1 (VM X), tier C2 (VM Z plus
// k senders), a 45%-of-link trunk and an equal intra-tier hose.
func fig13Graph(k int, trunk float64) *tag.Graph {
	g := tag.New("fig13")
	c1 := g.AddTier("C1", 1)
	c2 := g.AddTier("C2", 1+k)
	g.AddEdge(c1, c2, trunk, trunk)
	g.AddSelfLoop(c2, trunk)
	return g
}

// spread places each VM of the graph on its own server, tier-major in
// server order — the placement a 1-slot-per-server tree forces.
func spread(tree *topology.Tree, g *tag.Graph) place.Placement {
	pl := make(place.Placement)
	servers := tree.Servers()
	i := 0
	for t := 0; t < g.Tiers(); t++ {
		for k := 0; k < g.TierSize(t); k++ {
			pl.Add(servers[i], g.Tiers(), t, 1)
			i++
		}
	}
	return pl
}

func TestFabricPaths(t *testing.T) {
	tree := topology.New(topology.Spec{
		SlotsPerServer: 2,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 2, Uplink: 10},
			{Name: "tor", Fanout: 2, Uplink: 40},
		},
	})
	fab, err := NewFabric(tree)
	if err != nil {
		t.Fatal(err)
	}
	servers := tree.Servers()
	if got := fab.Path(servers[0], servers[0]); got != nil {
		t.Errorf("colocated path = %v, want nil", got)
	}
	// Same ToR: src up + dst down, 2 links.
	if got := fab.Path(servers[0], servers[1]); len(got) != 2 {
		t.Errorf("same-tor path has %d links, want 2", len(got))
	}
	// Across the root: src up, tor up, tor down, dst down — 4 links.
	if got := fab.Path(servers[0], servers[3]); len(got) != 4 {
		t.Errorf("cross-root path has %d links, want 4", len(got))
	}
	// Two links per non-root node.
	if want := 2 * (tree.NumNodes() - 1); fab.Network().Links() != want {
		t.Errorf("fabric has %d links, want %d", fab.Network().Links(), want)
	}
}

func TestBindDeterministicTierMajor(t *testing.T) {
	tree := topology.New(flatSpec(8, 24))
	g := fig13Graph(2, 10.8)
	pl := spread(tree, g)
	b, err := Bind(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if b.VMs() != 4 {
		t.Fatalf("bound %d VMs, want 4", b.VMs())
	}
	servers := tree.Servers()
	for vm := 0; vm < 4; vm++ {
		if b.Server(vm) != servers[vm] {
			t.Errorf("VM %d on server %d, want %d", vm, b.Server(vm), servers[vm])
		}
	}
	// A placement that does not cover the graph is an invariant
	// violation, not a silent mis-bind.
	bad := make(place.Placement)
	bad.Add(servers[0], g.Tiers(), 0, 1)
	if _, err := Bind(g, bad); err == nil {
		t.Error("Bind accepted an incomplete placement")
	}
}

// admitEvent fabricates the lifecycle event the cluster layer emits on
// admission.
func admitEvent(key int64, g *tag.Graph, pl place.Placement) place.Event {
	return place.Event{Kind: place.EventAdmitted, Key: key, ID: key, Graph: g, Placement: pl}
}

// TestFig13Equivalence: the driver run over the spread placement must
// reproduce, exactly, the rates enforce.WorkConservingRates computes on
// the single shared bottleneck — the Fig. 13 numbers of the paper.
func TestFig13Equivalence(t *testing.T) {
	const link, trunk = 24.0, 24.0 * 0.45
	for k := 1; k <= 3; k++ {
		g := fig13Graph(k, trunk)
		tree := topology.New(flatSpec(8, link))
		d, err := New(tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		d.Publish(admitEvent(1, g, spread(tree, g)))
		demands := []Demand{{Src: 0, Dst: 1, Mbps: netem.Greedy}}
		for s := 0; s < k; s++ {
			demands = append(demands, Demand{Src: 2 + s, Dst: 1, Mbps: netem.Greedy})
		}
		if err := d.SetDemand(1, demands); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Converge(0, 0); err != nil {
			t.Fatal(err)
		}

		// The reference: one shared link, same pairs, same GP.
		dep := enforce.NewDeployment(g)
		n := netem.New()
		l, err := n.AddLink("to-Z", link)
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([]enforce.Pair, len(demands))
		paths := make([][]netem.LinkID, len(demands))
		for i, dm := range demands {
			pairs[i] = enforce.Pair{Src: dm.Src, Dst: dm.Dst, Demand: dm.Mbps}
			paths[i] = []netem.LinkID{l}
		}
		ref, err := enforce.WorkConservingRates(n, pairs, paths, enforce.NewTAGPartitioner(dep))
		if err != nil {
			t.Fatal(err)
		}
		got := pairsOf(t, d, 1)
		if len(got) != len(ref.Rates) {
			t.Fatalf("k=%d: %d pairs, want %d", k, len(got), len(ref.Rates))
		}
		for i := range got {
			if math.Abs(got[i].Rate-ref.Rates[i]) > 1e-6 {
				t.Errorf("k=%d pair %d: driver rate %g, reference %g", k, i, got[i].Rate, ref.Rates[i])
			}
			if math.Abs(got[i].Guarantee-ref.Guarantees[i]) > 1e-6 {
				t.Errorf("k=%d pair %d: driver guarantee %g, reference %g", k, i, got[i].Guarantee, ref.Guarantees[i])
			}
		}
	}
}

// TestWorkConservation: spare capacity is redistributed in proportion
// to guarantees (plus the scavenger floor), and every pair achieves at
// least its guarantee.
func TestWorkConservation(t *testing.T) {
	const link, trunk = 24.0, 24.0 * 0.45
	k := 2
	g := fig13Graph(k, trunk)
	tree := topology.New(flatSpec(8, link))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.Publish(admitEvent(1, g, spread(tree, g)))
	demands := []Demand{
		{Src: 0, Dst: 1, Mbps: netem.Greedy},
		{Src: 2, Dst: 1, Mbps: netem.Greedy},
		{Src: 3, Dst: 1, Mbps: netem.Greedy},
	}
	if err := d.SetDemand(1, demands); err != nil {
		t.Fatal(err)
	}
	st, _, err := d.Converge(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := st.Tenants[0]
	if ts.MinRatio < 1-1e-9 {
		t.Errorf("MinRatio = %g, want >= 1: a guarantee was broken", ts.MinRatio)
	}
	// All three flows share the one bottleneck; the spare (link minus
	// summed guarantees) must split proportionally to weight g+1.
	var wsum float64
	pairs := pairsOf(t, d, 1)
	for _, p := range pairs {
		wsum += p.Guarantee + 1
	}
	spare := link - ts.GuaranteedMbps
	for i, p := range pairs {
		want := spare * (p.Guarantee + 1) / wsum
		if math.Abs((p.Rate-p.Guarantee)-want) > 1e-6 {
			t.Errorf("pair %d: spare share %g, want %g (proportional to guarantee)", i, p.Rate-p.Guarantee, want)
		}
	}
	// Work conservation: the bottleneck is fully used.
	if math.Abs(ts.AchievedMbps-link) > 1e-6 {
		t.Errorf("achieved %g Mbps, want full bottleneck %g", ts.AchievedMbps, link)
	}
}

// TestIncrementalLifecycle: resize and release patch the driver's
// state — other tenants keep their base IDs and limits, the fabric is
// never rebuilt, and the counters mirror the control plane.
func TestIncrementalLifecycle(t *testing.T) {
	tree := topology.New(flatSpec(8, 1000))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}

	mk := func(n int) *tag.Graph {
		g := tag.New("t")
		tier := g.AddTier("a", n)
		g.AddSelfLoop(tier, 100)
		return g
	}
	g1, g2 := mk(2), mk(2)
	pl1 := make(place.Placement)
	pl1.Add(tree.Servers()[0], 1, 0, 1)
	pl1.Add(tree.Servers()[1], 1, 0, 1)
	pl2 := make(place.Placement)
	pl2.Add(tree.Servers()[2], 1, 0, 1)
	pl2.Add(tree.Servers()[3], 1, 0, 1)
	d.Publish(admitEvent(1, g1, pl1))
	d.Publish(admitEvent(2, g2, pl2))
	if d.Tenants() != 2 {
		t.Fatalf("%d tenants, want 2", d.Tenants())
	}
	if _, err := d.Step(); err != nil {
		t.Fatal(err)
	}

	// Resize tenant 2 to three VMs.
	g2b := mk(3)
	pl2b := make(place.Placement)
	pl2b.Add(tree.Servers()[2], 1, 0, 1)
	pl2b.Add(tree.Servers()[3], 1, 0, 1)
	pl2b.Add(tree.Servers()[4], 1, 0, 1)
	d.Publish(place.Event{Kind: place.EventResized, Key: 2, ID: 2, Graph: g2b, Placement: pl2b})
	st, err := d.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Tenants[1].Pairs + st.Tenants[1].Colocated; got != 6 {
		t.Errorf("resized tenant has %d default flows, want 6 (3 VMs all-to-all)", got)
	}

	// Release tenant 1.
	d.Publish(place.Event{Kind: place.EventReleased, Key: 1})
	st, err = d.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Key != 2 {
		t.Errorf("after release, tenants = %+v, want only key 2", st.Tenants)
	}

	c := d.Counters()
	want := Counters{Admitted: 2, Resized: 1, Released: 1, FabricBuilds: 1}
	if c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}

	// Double release and unknown keys are no-ops.
	d.Publish(place.Event{Kind: place.EventReleased, Key: 1})
	d.Publish(place.Event{Kind: place.EventReleased, Key: 99})
	if c := d.Counters(); c.Released != 1 {
		t.Errorf("released counter = %d after double release, want 1", c.Released)
	}
}

func TestSkipsNonTAGTenants(t *testing.T) {
	tree := topology.New(flatSpec(4, 100))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pl := make(place.Placement)
	pl.Add(tree.Servers()[0], 1, 0, 1)
	d.Publish(place.Event{Kind: place.EventAdmitted, Key: 1, Placement: pl}) // no Graph: VOC/pipe-priced
	if d.Tenants() != 0 {
		t.Errorf("non-TAG tenant was installed")
	}
	if c := d.Counters(); c.Skipped != 1 || c.Admitted != 0 {
		t.Errorf("counters = %+v, want Skipped 1", c)
	}
}

func TestSetDemandValidation(t *testing.T) {
	tree := topology.New(flatSpec(4, 100))
	d, err := New(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := fig13Graph(1, 10)
	d.Publish(admitEvent(7, g, spread(tree, g)))
	for name, demands := range map[string][]Demand{
		"out of range": {{Src: 0, Dst: 99, Mbps: 1}},
		"self flow":    {{Src: 1, Dst: 1, Mbps: 1}},
		"negative":     {{Src: 0, Dst: 1, Mbps: -2}},
		"duplicate":    {{Src: 0, Dst: 1, Mbps: 1}, {Src: 1, Dst: 0, Mbps: 1}, {Src: 0, Dst: 1, Mbps: 2}},
	} {
		err := d.SetDemand(7, demands)
		if place.ReasonOf(err) != place.ReasonInvalidRequest {
			t.Errorf("%s: reason = %q, want invalid_request", name, place.ReasonOf(err))
		}
	}
	if err := d.SetDemand(99, nil); place.ReasonOf(err) != place.ReasonInvalidRequest {
		t.Errorf("unknown key: reason = %q, want invalid_request", place.ReasonOf(err))
	}
}

func TestConfigValidation(t *testing.T) {
	tree := topology.New(flatSpec(2, 10))
	if _, err := New(tree, Config{Alpha: 2}); err == nil {
		t.Error("alpha 2 accepted")
	}
	if _, err := New(tree, Config{Partitioner: "bogus"}); err == nil {
		t.Error("bogus partitioner accepted")
	}
	var re *place.RejectionError
	_, err := New(tree, Config{Partitioner: "bogus"})
	if !errors.As(err, &re) {
		t.Errorf("config error %v is not a RejectionError", err)
	}
}

// TestHosePartitionerBreaksGuarantee reproduces Fig. 4 through the
// driver: under single-hose partitioning the web→logic guarantee
// breaks, under TAG partitioning it holds.
func TestHosePartitionerBreaksGuarantee(t *testing.T) {
	g := tag.New("fig4")
	web := g.AddTier("web", 1)
	logic := g.AddTier("logic", 1)
	db := g.AddTier("db", 1)
	g.AddEdge(web, logic, 500, 500)
	g.AddEdge(db, logic, 100, 100)
	demands := []Demand{
		{Src: 0, Dst: 1, Mbps: netem.Greedy},
		{Src: 2, Dst: 1, Mbps: netem.Greedy},
	}
	rate := func(partitioner string) float64 {
		tree := topology.New(flatSpec(4, 600))
		d, err := New(tree, Config{Partitioner: partitioner})
		if err != nil {
			t.Fatal(err)
		}
		d.Publish(admitEvent(1, g, spread(tree, g)))
		if err := d.SetDemand(1, demands); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Converge(0, 0); err != nil {
			t.Fatal(err)
		}
		return pairsOf(t, d, 1)[0].Rate
	}
	if got := rate("tag"); got < 500-1e-6 {
		t.Errorf("TAG partitioning: web→logic %g Mbps, want >= 500", got)
	}
	if got := rate("hose"); got >= 500-1e-6 {
		t.Errorf("hose partitioning: web→logic %g Mbps, expected the Fig. 4 breakage (< 500)", got)
	}
}
