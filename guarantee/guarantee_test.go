package guarantee

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// testSpec is a small fleet topology: 8 servers × 4 slots per shard.
func testSpec() topology.Spec {
	return topology.Spec{
		SlotsPerServer: 4,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 10_000},
			{Name: "tor", Fanout: 2, Uplink: 20_000},
		},
	}
}

// testGraph builds a two-tier tenant with fixed per-VM guarantees.
func testGraph(a, b int) *tag.Graph {
	g := tag.New("tenant")
	ta := g.AddTier("web", a)
	tb := g.AddTier("db", b)
	g.AddBidirectional(ta, tb, 100, 50)
	return g
}

// TestServiceLifecycle walks the full admit → resize → release cycle
// through the public Service and checks stats and loads along the way.
func TestServiceLifecycle(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2), WithPolicy("least"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	grant, err := svc.Admit(ctx, Request{ID: 1, Graph: testGraph(3, 2)})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 5 {
		t.Errorf("placed %d VMs, want 5", got)
	}

	if err := grant.Resize(ctx, testGraph(6, 2)); err != nil {
		t.Fatalf("resize: %v", err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 8 {
		t.Errorf("after resize placed %d VMs, want 8", got)
	}

	st := svc.Stats()
	if st.Admitted != 1 || st.Resized != 1 {
		t.Errorf("stats = %+v, want 1 admitted, 1 resized", st)
	}
	used := 0
	for _, ld := range svc.Loads() {
		used += ld.SlotsUsed
	}
	if used != 8 {
		t.Errorf("fleet SlotsUsed = %d, want 8", used)
	}

	grant.Release()
	grant.Release() // idempotent
	if st := svc.Stats(); st.Released != 1 {
		t.Errorf("released = %d, want 1", st.Released)
	}
	for i, ld := range svc.Loads() {
		if ld.SlotsUsed != 0 || ld.Tenants != 0 {
			t.Errorf("shard %d not drained: %+v", i, ld)
		}
	}
	if err := grant.Resize(ctx, testGraph(2, 2)); ReasonOf(err) != Released {
		t.Errorf("resize after release: reason %q, want %q", ReasonOf(err), Released)
	}
}

// TestOptionValidation: bad options fail construction with typed
// InvalidRequest rejections, never panics or silent defaults.
func TestOptionValidation(t *testing.T) {
	cases := map[string][]Option{
		"bad shards": {WithShards(0)},
		"bad policy": {WithPolicy("banana")},
	}
	for name, opts := range cases {
		if _, err := New(testSpec(), opts...); ReasonOf(err) != InvalidRequest {
			t.Errorf("%s: reason %q (err %v), want %q", name, ReasonOf(err), err, InvalidRequest)
		}
	}
	// The options that matter compose: sharded, seeded p2c.
	svc, err := New(testSpec(), WithShards(3), WithPolicy("p2c"), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name() != "cm" || svc.Shards() != 3 || svc.Policy() != "p2c" {
		t.Errorf("service = %s/%s/%d shards, want cm/p2c/3", svc.Name(), svc.Policy(), svc.Shards())
	}
}

// TestWithPlacer: a replaced placer serves under its own name and still
// prices tenants by their TAG (so they resize); a durable service
// refuses it, because a ledger records only the default placer.
func TestWithPlacer(t *testing.T) {
	coloc := WithPlacer(func(tr *topology.Tree) place.Placer { return cloudmirror.New(tr, cloudmirror.WithoutBalance()) })
	svc, err := New(testSpec(), coloc)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name() != "CM/coloc-only" {
		t.Errorf("Name() = %q, want the placer's own name", svc.Name())
	}
	ctx := context.Background()
	grant, err := svc.Admit(ctx, Request{ID: 1, Graph: testGraph(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := grant.Resize(ctx, testGraph(3, 1)); err != nil {
		t.Errorf("resize under a replaced placer: %v", err)
	}
	grant.Release()
	if _, err := New(testSpec(), coloc, WithDurability(t.TempDir())); ReasonOf(err) != Unsupported {
		t.Errorf("durable WithPlacer: err = %v, want unsupported", err)
	}
}

// TestAdmitValidation: malformed requests — hostile HA fields and
// non-finite resource demands included — reject with InvalidRequest
// through the central place validation, counted as failures, never as
// capacity rejections or admissions.
func TestAdmitValidation(t *testing.T) {
	spec := testSpec()
	spec.Resources = []topology.ResourceSpec{{Name: "cpu", PerServer: 8}}
	svc, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	negative := tag.New("bad")
	negative.AddTier("a", -3)

	cases := map[string]Request{
		"empty request":               {},
		"negative tier":               {Graph: negative},
		"zero VMs":                    {Graph: tag.New("empty")},
		"bad RWCS":                    {Graph: testGraph(2, 1), HA: HASpec{RWCS: 1.5}},
		"NaN RWCS":                    {Graph: testGraph(2, 1), HA: HASpec{RWCS: math.NaN()}},
		"negative LAA":                {Graph: testGraph(2, 1), HA: HASpec{LAA: -1}},
		"LAA past root":               {Graph: testGraph(2, 1), HA: HASpec{RWCS: 0.5, LAA: 99}},
		"LAA at height":               {Graph: testGraph(2, 1), HA: HASpec{LAA: 2}},
		"opportunistic LAA past root": {Graph: testGraph(2, 1), HA: HASpec{LAA: 99, Opportunistic: true}},
		"bad resources":               {Graph: testGraph(2, 1), Resources: [][]float64{{1}}},
		"negative rsrcs":              {Graph: testGraph(2, 1), Resources: [][]float64{{-1}, {1}}},
		"NaN rsrcs":                   {Graph: testGraph(2, 1), Resources: [][]float64{{math.NaN()}, {1}}},
		"infinite rsrcs":              {Graph: testGraph(2, 1), Resources: [][]float64{{1}, {math.Inf(1)}}},
	}
	for name, req := range cases {
		_, err := svc.Admit(ctx, req)
		if ReasonOf(err) != InvalidRequest {
			t.Errorf("%s: reason %q (err %v), want %q", name, ReasonOf(err), err, InvalidRequest)
		}
		if errors.Is(err, place.ErrRejected) {
			t.Errorf("%s: invalid request must not count as a capacity rejection", name)
		}
	}
	if st := svc.Stats(); st.Admitted != 0 || st.Rejected != 0 || st.Failed != int64(len(cases)) {
		t.Errorf("stats = %+v, want every invalid request counted as failed", st)
	}
}

// TestClosedServiceRejects: after Close, in-memory and durable services
// alike reject Admit, AdmitBatch and Grant.Resize with ShuttingDown and
// count nothing; Grant.Release still frees the tenant.
func TestClosedServiceRejects(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts func(t *testing.T) []Option
	}{
		{"in-memory", func(*testing.T) []Option { return nil }},
		{"durable", func(t *testing.T) []Option { return []Option{WithDurability(t.TempDir())} }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ctx := context.Background()
			svc, err := New(testSpec(), mode.opts(t)...)
			if err != nil {
				t.Fatal(err)
			}
			g, err := svc.Admit(ctx, Request{ID: 1, Graph: testGraph(2, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Close(ctx); err != nil {
				t.Fatal(err)
			}
			before := svc.Stats()
			if _, err := svc.Admit(ctx, Request{ID: 2, Graph: testGraph(2, 1)}); ReasonOf(err) != ShuttingDown {
				t.Errorf("Admit after Close: %v, want %s", err, ShuttingDown)
			}
			grants, err := svc.AdmitBatch(ctx, []Request{{ID: 3, Graph: testGraph(1, 1)}, {ID: 4, Graph: testGraph(1, 1)}})
			if ReasonOf(err) != ShuttingDown || grants[0] != nil || grants[1] != nil {
				t.Errorf("AdmitBatch after Close: %v %v, want %s and no grants", grants, err, ShuttingDown)
			}
			if err := g.Resize(ctx, testGraph(3, 1)); ReasonOf(err) != ShuttingDown {
				t.Errorf("Resize after Close: %v, want %s", err, ShuttingDown)
			}
			if after := svc.Stats(); after.Admitted != before.Admitted || after.Resized != before.Resized ||
				after.Rejected != before.Rejected || after.Failed != before.Failed {
				t.Errorf("stats moved after Close: %+v -> %+v", before, after)
			}
			g.Release()
			if ld := svc.Loads()[0]; ld.Tenants != 0 || ld.SlotsUsed != 0 {
				t.Errorf("load after Release = %+v, want the tenant freed", ld)
			}
			if err := svc.Close(ctx); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

// TestCapacityRejection: a tenant that cannot fit rejects with a
// capacity-class reason on every shard and keeps ErrRejected
// back-compat.
func TestCapacityRejection(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Admit(context.Background(), Request{Graph: testGraph(1000, 1)})
	if err == nil {
		t.Fatal("impossible tenant admitted")
	}
	if !errors.Is(err, place.ErrRejected) {
		t.Errorf("capacity rejection lost ErrRejected back-compat: %v", err)
	}
	if r := ReasonOf(err); !r.Capacity() {
		t.Errorf("reason %q is not capacity-class", r)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestAdmitBatch: a batch returns aligned grants with nils for
// rejected entries and a joined error naming them.
func TestAdmitBatch(t *testing.T) {
	svc, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	grants, err := svc.AdmitBatch(context.Background(), []Request{
		{ID: 1, Graph: testGraph(2, 1)},
		{ID: 2, Graph: testGraph(1000, 1)}, // cannot fit
		{ID: 3, Graph: testGraph(1, 1)},
	})
	if err == nil {
		t.Fatal("batch with impossible tenant returned nil error")
	}
	if grants[0] == nil || grants[2] == nil || grants[1] != nil {
		t.Fatalf("grants = [%v %v %v], want [grant nil grant]", grants[0], grants[1], grants[2])
	}
	if !errors.Is(err, place.ErrRejected) {
		t.Errorf("joined batch error lost ErrRejected: %v", err)
	}
	for _, g := range grants {
		if g != nil {
			g.Release()
		}
	}
}

// TestContextCanceled: a canceled context rejects with Canceled before
// touching the ledger.
func TestContextCanceled(t *testing.T) {
	svc, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Admit(ctx, Request{Graph: testGraph(2, 1)}); ReasonOf(err) != Canceled {
		t.Errorf("admit on canceled ctx: reason %q, want %q", ReasonOf(err), Canceled)
	}
	grant, err := svc.Admit(context.Background(), Request{Graph: testGraph(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := grant.Resize(ctx, testGraph(3, 1)); ReasonOf(err) != Canceled {
		t.Errorf("resize on canceled ctx: reason %q, want %q", ReasonOf(err), Canceled)
	}
	grant.Release()
}

// TestConcurrentServiceChurn hammers one service from many goroutines
// mixing admit, resize, and release (run under -race), then checks the
// fleet drains to zero.
func TestConcurrentServiceChurn(t *testing.T) {
	svc, err := New(testSpec(), WithShards(2), WithPolicy("rr"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				grant, err := svc.Admit(ctx, Request{ID: int64(w*100 + i), Graph: testGraph(1+i%3, 1)})
				if err != nil {
					if ReasonOf(err) == "" {
						t.Errorf("untyped admit error: %v", err)
					}
					continue
				}
				if err := grant.Resize(ctx, testGraph(2+i%2, 1)); err != nil && ReasonOf(err) == "" {
					t.Errorf("untyped resize error: %v", err)
				}
				grant.Release()
			}
		}(w)
	}
	wg.Wait()
	for i, ld := range svc.Loads() {
		if ld.SlotsUsed != 0 || ld.Tenants != 0 || ld.ReservedMbps != 0 {
			t.Errorf("shard %d not drained after churn: %+v", i, ld)
		}
	}
}
