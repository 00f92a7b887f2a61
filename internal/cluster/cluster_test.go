package cluster

import (
	"sync"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

func newTestCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(topology.SmallSpec(), shards,
		func(tr *topology.Tree) place.Placer { return cloudmirror.New(tr) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testRequest(t *testing.T, id int64) *place.Request {
	t.Helper()
	pool := workload.BingLike(1)
	workload.ScaleToBmax(pool, 800)
	// The largest tenant in the pool spans servers, so placing it
	// always reserves uplink bandwidth (load-gauge tests rely on a
	// nonzero ReservedMbps).
	g := pool[0]
	for _, cand := range pool {
		if cand.VMs() > g.VMs() {
			g = cand
		}
	}
	return &place.Request{ID: id, Graph: g, Model: g}
}

func TestClusterValidation(t *testing.T) {
	np := func(tr *topology.Tree) place.Placer { return cloudmirror.New(tr) }
	if _, err := New(topology.SmallSpec(), 0, np, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(topology.SmallSpec(), 2, nil, 1); err == nil {
		t.Error("nil placer constructor accepted")
	}
}

// idleLoad is shard i's load with nothing admitted.
func idleLoad(c *Cluster, i int) Load {
	tree := c.Shard(i).Tree()
	return Load{SlotsTotal: tree.SlotsTotal(tree.Root())}
}

// TestShardLoadAccounting: the lock-free load gauges track admissions
// and releases exactly.
func TestShardLoadAccounting(t *testing.T) {
	c := newTestCluster(t, 2)
	s := c.Shard(0)
	idle := idleLoad(c, 0)
	if got := c.Load(0); got != idle {
		t.Fatalf("fresh shard load = %+v, want idle", got)
	}
	if idle.SlotsTotal <= 0 {
		t.Fatalf("SlotsTotal = %d, want positive", idle.SlotsTotal)
	}

	ten, _, err := s.Place(testRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	ld := c.Load(0)
	if ld.Tenants != 1 {
		t.Errorf("Tenants = %d, want 1", ld.Tenants)
	}
	if want := ten.Reservation().Placement().VMs(); ld.SlotsUsed != want {
		t.Errorf("SlotsUsed = %d, want %d", ld.SlotsUsed, want)
	}
	if want := ten.Reservation().TotalReserved(); ld.ReservedMbps != want {
		t.Errorf("ReservedMbps = %g, want %g", ld.ReservedMbps, want)
	}
	if other := c.Load(1); other != idleLoad(c, 1) {
		t.Errorf("untouched shard load = %+v, want idle", other)
	}

	ten.Release()
	ten.Release() // second release must be a no-op
	if got := c.Load(0); got != idle {
		t.Errorf("post-release load = %+v, want idle", got)
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Released != 1 {
		t.Errorf("stats = %+v, want 1 admitted / 1 released", st)
	}
}

// TestClusterParallelConstruction: shard fleets are identical whether
// built serially or concurrently (each shard is a function of the spec
// alone).
func TestClusterParallelConstruction(t *testing.T) {
	np := func(tr *topology.Tree) place.Placer { return cloudmirror.New(tr) }
	serial, err := New(topology.SmallSpec(), 8, np, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(topology.SmallSpec(), 8, np, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Size() != par.Size() {
		t.Fatalf("sizes differ: %d vs %d", serial.Size(), par.Size())
	}
	for i := 0; i < serial.Size(); i++ {
		if a, b := serial.Load(i), par.Load(i); a != b || serial.Shard(i).Name() != par.Shard(i).Name() {
			t.Errorf("shard %d differs: serial {%+v, %s} vs parallel {%+v, %s}",
				i, a, serial.Shard(i).Name(), b, par.Shard(i).Name())
		}
	}
}

// TestClusterConcurrentShards: admissions on different shards proceed
// concurrently without races (run with -race).
func TestClusterConcurrentShards(t *testing.T) {
	c := newTestCluster(t, 4)
	var wg sync.WaitGroup
	for i := 0; i < c.Size(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := c.Shard(i)
			for j := 0; j < 20; j++ {
				ten, _, err := s.Place(testRequest(t, int64(i)<<16|int64(j)))
				if err != nil {
					continue
				}
				ten.Release()
			}
		}(i)
	}
	wg.Wait()
	for i, ld := range c.Loads() {
		if ld != idleLoad(c, i) {
			t.Errorf("shard %d load after full release = %+v, want idle", i, ld)
		}
	}
}
