package guarantee

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cloudmirror/internal/enforce"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// fig13Spec is the scenario substrate: one VM slot per server, so every
// VM lands on its own server and the receiver's downlink is the single
// bottleneck.
func fig13Spec(servers int, uplink float64) topology.Spec {
	return topology.Spec{
		SlotsPerServer: 1,
		Levels:         []topology.LevelSpec{{Name: "server", Fanout: servers, Uplink: uplink}},
	}
}

// TestEnforcementFig13 reproduces the Fig. 13 numbers end to end
// through the public API — admission, lifecycle events, dataplane —
// and checks them against enforce.WorkConservingRates on the
// equivalent single shared link, proving the migration of
// examples/enforcement changed nothing.
func TestEnforcementFig13(t *testing.T) {
	const link, trunk = 24.0, 24.0 * 0.45
	for k := 1; k <= 3; k++ {
		svc, err := New(fig13Spec(8, link), WithEnforcement(EnforcementConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		g := fig13Graph(k, trunk)
		grant, err := svc.Admit(context.Background(), Request{Graph: g})
		if err != nil {
			t.Fatalf("k=%d admit: %v", k, err)
		}
		demands := []Demand{{Src: 0, Dst: 1, Mbps: Greedy}}
		for s := 0; s < k; s++ {
			demands = append(demands, Demand{Src: 2 + s, Dst: 1, Mbps: Greedy})
		}
		enf := svc.Enforcement()
		if err := enf.SetDemand(grant, demands); err != nil {
			t.Fatal(err)
		}
		if _, err := enf.Converge(0, 0); err != nil {
			t.Fatal(err)
		}
		flows, err := enf.Pairs(grant)
		if err != nil {
			t.Fatal(err)
		}

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
		for i := range flows {
			if math.Abs(flows[i].Rate-ref.Rates[i]) > 1e-6 {
				t.Errorf("k=%d flow %d: public-API rate %g, reference %g", k, i, flows[i].Rate, ref.Rates[i])
			}
		}
		// X's trunk guarantee must be honored in every scenario.
		if flows[0].Rate < trunk-1e-6 {
			t.Errorf("k=%d: X→Z rate %g below its %g trunk guarantee", k, flows[0].Rate, trunk)
		}
	}
}

// fig13Graph is the Fig. 13(a) TAG.
func fig13Graph(k int, trunk float64) *tag.Graph {
	g := tag.New("fig13")
	c1 := g.AddTier("C1", 1)
	c2 := g.AddTier("C2", 1+k)
	g.AddEdge(c1, c2, trunk, trunk)
	g.AddSelfLoop(c2, trunk)
	return g
}

// TestEnforcementLifecycleEvents: admit, resize, and release through
// the public API are reflected in the dataplane incrementally — the
// counters mirror the service's stats and the fabric is imaged exactly
// once per shard.
func TestEnforcementLifecycleEvents(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2),
		WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	enf := svc.Enforcement()

	g1, err := svc.Admit(ctx, Request{ID: 1, Graph: testGraph(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := svc.Admit(ctx, Request{ID: 2, Graph: testGraph(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.Resize(ctx, testGraph(4, 2)); err != nil {
		t.Fatal(err)
	}
	g2.Release()

	c := enf.Counters()
	if c.Admitted != 2 || c.Resized != 1 || c.Released != 1 || c.Skipped != 0 {
		t.Errorf("counters = %+v, want 2 admitted, 1 resized, 1 released", c)
	}
	if c.FabricBuilds != int64(svc.Shards()) {
		t.Errorf("FabricBuilds = %d, want one per shard (%d): events must patch, not rebuild",
			c.FabricBuilds, svc.Shards())
	}

	rep, err := enf.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants != 1 {
		t.Errorf("dataplane tracks %d tenants after release, want 1", rep.Tenants)
	}
	if rep.MinRatio < 1-1e-9 {
		t.Errorf("MinRatio = %g, want >= 1", rep.MinRatio)
	}
	g1.Release()
	if c := enf.Counters(); c.Released != 2 {
		t.Errorf("released = %d, want 2", c.Released)
	}
}

// TestZeroStepResizeIsNoOp: a resize to the grant's own tier sizes
// commits nothing, so it must change nothing — not the service's
// counters, not the enforcement plane's counters, declared demands or
// next period, and not the log of a durable service.
func TestZeroStepResizeIsNoOp(t *testing.T) {
	ctx := context.Background()
	run := func(durable, zeroStep bool) string {
		opts := []Option{WithShards(2), WithEnforcement(EnforcementConfig{Alpha: 0.5})}
		if durable {
			opts = append(opts, WithDurability(t.TempDir()))
		}
		svc, err := New(testSpec(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(ctx)
		enf := svc.Enforcement()
		g, err := svc.Admit(ctx, Request{ID: 1, Graph: testGraph(3, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if err := enf.SetDemand(g, []Demand{{Src: 0, Dst: 3, Mbps: 40}, {Src: 4, Dst: 1, Mbps: Greedy}}); err != nil {
			t.Fatal(err)
		}
		if _, err := enf.Step(); err != nil {
			t.Fatal(err)
		}
		if zeroStep {
			if err := g.Resize(ctx, testGraph(3, 2)); err != nil {
				t.Fatalf("zero-step resize: %v", err)
			}
		}
		pairs, err := enf.Pairs(g)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := enf.Step()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "stats %+v\nenfcounters %+v\npairs %v\n", svc.Stats(), enf.Counters(), pairs)
		for i, st := range rep.PerShard {
			fmt.Fprintf(&sb, "step %+v\n", shardWithRows(enf, i, st))
		}
		if durable {
			fmt.Fprintf(&sb, "records %d\n", svc.Durability().Stats().Records)
		}
		return sb.String()
	}
	for _, durable := range []bool{false, true} {
		if got, want := run(durable, true), run(durable, false); got != want {
			t.Errorf("durable=%v: after a zero-step resize\n%s\nwant, as without it,\n%s", durable, got, want)
		}
	}
}

// TestEnforcementRejectsForeignGrant: a grant issued by a different
// service must be rejected by SetDemand — grant keys are per-shard
// sequences, so without the identity check a foreign grant would
// silently collide with an unrelated tenant's demands.
func TestEnforcementRejectsForeignGrant(t *testing.T) {
	mk := func() (Service, Grant) {
		svc, err := New(testSpec(), WithEnforcement(EnforcementConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		g, err := svc.Admit(context.Background(), Request{ID: 1, Graph: testGraph(2, 2)})
		if err != nil {
			t.Fatal(err)
		}
		return svc, g
	}
	svcA, grantA := mk()
	svcB, _ := mk()
	err := svcB.Enforcement().SetDemand(grantA, []Demand{{Src: 0, Dst: 1, Mbps: 10}})
	if ReasonOf(err) != InvalidRequest {
		t.Errorf("foreign grant accepted: err = %v, want invalid_request", err)
	}
	if err := svcA.Enforcement().SetDemand(grantA, []Demand{{Src: 0, Dst: 1, Mbps: 10}}); err != nil {
		t.Errorf("own grant rejected: %v", err)
	}
}

// TestEnforcementRejectsDuplicatePair: one (Src, Dst) declared twice
// would become two flows splitting the hose and one limiter's history;
// SetDemand rejects it and leaves the previous declaration in force.
func TestEnforcementRejectsDuplicatePair(t *testing.T) {
	svc, err := New(testSpec(), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := svc.Admit(context.Background(), Request{ID: 1, Graph: testGraph(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Release()
	enf := svc.Enforcement()
	if err := enf.SetDemand(grant, []Demand{{Src: 0, Dst: 2, Mbps: 10}}); err != nil {
		t.Fatal(err)
	}
	err = enf.SetDemand(grant, []Demand{{Src: 0, Dst: 2, Mbps: 10}, {Src: 1, Dst: 2, Mbps: 5}, {Src: 0, Dst: 2, Mbps: 20}})
	if ReasonOf(err) != InvalidRequest {
		t.Errorf("duplicate pair accepted: err = %v, want invalid_request", err)
	}
	rep, err := enf.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Pairs + rep.Colocated; got != 1 {
		t.Errorf("%d flows under enforcement after the rejected declaration, want the previous 1", got)
	}
}

// TestEnforcementEmptyDeclaration: declaring no flows — a nil slice or
// an empty one — idles the tenant; it must not fall back to the
// undeclared default of every TAG pair backlogged.
func TestEnforcementEmptyDeclaration(t *testing.T) {
	svc, err := New(testSpec(), WithEnforcement(EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := svc.Admit(context.Background(), Request{ID: 1, Graph: testGraph(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Release()
	enf := svc.Enforcement()
	for name, none := range map[string][]Demand{"nil": nil, "empty": {}} {
		if err := enf.SetDemand(grant, []Demand{{Src: 0, Dst: 2, Mbps: 10}}); err != nil {
			t.Fatal(err)
		}
		if rep, err := enf.Step(); err != nil || rep.Pairs+rep.Colocated != 1 {
			t.Fatalf("%s: one declared flow, report %+v (%v)", name, rep, err)
		}
		if err := enf.SetDemand(grant, none); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := enf.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs != 0 || rep.Colocated != 0 || rep.AchievedMbps != 0 {
			t.Errorf("%s: idle tenant reports %d pairs, %d colocated, %v Mbps achieved", name, rep.Pairs, rep.Colocated, rep.AchievedMbps)
		}
		if rows, err := enf.Pairs(grant); err != nil || len(rows) != 0 {
			t.Errorf("%s: Pairs returns %d rows (%v), want none", name, len(rows), err)
		}
	}
}

// TestEnforcementConcurrentChurn races Admit/Resize/Release against
// the control loop and demand declarations — the dataplane must stay
// consistent under -race with lifecycle events arriving from many
// goroutines.
func TestEnforcementConcurrentChurn(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2), WithPolicy("least"),
		WithEnforcement(EnforcementConfig{Alpha: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	enf := svc.Enforcement()

	const workers, iters = 8, 30
	var wg, stepper sync.WaitGroup
	stop := make(chan struct{})
	stepper.Add(1)
	go func() { // the control loop, concurrent with churn
		defer stepper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := enf.Step(); err != nil {
				t.Errorf("step: %v", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				g, err := svc.Admit(ctx, Request{ID: int64(w*1000 + i), Graph: testGraph(1+r.Intn(3), 1+r.Intn(2))})
				if err != nil {
					continue // capacity rejection under contention is fine
				}
				_ = enf.SetDemand(g, []Demand{{Src: 0, Dst: 1, Mbps: 50}})
				if r.Intn(2) == 0 {
					_ = g.Resize(ctx, testGraph(1+r.Intn(4), 1+r.Intn(2)))
				}
				// Racing SetDemand after a possible resize must never
				// crash; an invalid pair is a typed error.
				_ = enf.SetDemand(g, []Demand{{Src: 0, Dst: 1, Mbps: 25}})
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	stepper.Wait()

	c := enf.Counters()
	if c.Admitted != c.Released {
		t.Errorf("admitted %d != released %d after full churn", c.Admitted, c.Released)
	}
	rep, err := enf.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants != 0 {
		t.Errorf("dataplane still tracks %d tenants after all releases", rep.Tenants)
	}
}
