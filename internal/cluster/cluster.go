// Package cluster scales admission beyond one datacenter tree: it
// manages a fleet of independent shards — each its own topology tree
// behind a thread-safe place.Admitter — and routes tenant requests
// across them through a Dispatcher with a pluggable placement policy
// (round-robin, least-loaded, power-of-two-choices) and per-shard
// failover.
//
// A single tree serializes every placement, resize and release behind
// its one mutex (see place.Admitter); a batch is no exception, it takes
// that mutex once per request. So one tree is a scalability ceiling.
// Shards share nothing — no tree state, no locks — so admissions on
// different shards proceed fully in parallel; the only cross-shard
// state is the dispatcher's lock-free load snapshot, which policies
// read to route requests toward spare capacity.
package cluster

import (
	"errors"

	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
	"cloudmirror/internal/topology"
)

// Load is a point-in-time snapshot of one shard's occupancy, the input
// to dispatch policies. It is read from the shard's tally (see
// place.Tally), whose atomics are folded outside the shard's admission
// lock, so reading a Load never blocks an in-flight placement; under
// concurrent admission the snapshot is approximate (each field is
// individually, not jointly, consistent), which is exactly the
// information a real load balancer would have.
type Load struct {
	// ReservedMbps is the bandwidth the shard's live tenants hold,
	// summed over all uplinks and both directions.
	ReservedMbps float64
	// SlotsUsed is the number of occupied VM slots.
	SlotsUsed int
	// SlotsTotal is the shard's fixed VM slot capacity, so consumers of
	// a snapshot can compute occupancy without reaching into the shard.
	SlotsTotal int
	// Tenants is the number of live tenants.
	Tenants int
}

// Cluster is a fixed fleet of shards built from one topology spec and
// one placement algorithm: shard i is the place.Admitter at index i.
// Shards are independent: each owns its tree and placer, so the cluster
// as a whole admits concurrently on as many shards as there are
// callers.
type Cluster struct {
	shards []*place.Admitter
}

// New builds a cluster of n identical shards, each its own tree from
// spec with its own placer from newPlacer behind a place.Admitter.
// Construction fans out across at most workers goroutines (0 means all
// cores); shard i's tree and placer are a function of i alone, so the
// result is identical at any worker count.
func New(spec topology.Spec, n int, newPlacer func(*topology.Tree) place.Placer, workers int) (*Cluster, error) {
	if newPlacer == nil {
		return nil, errors.New("cluster: nil placer constructor")
	}
	if n <= 0 {
		return nil, errors.New("cluster: shard count must be positive")
	}
	shards, err := parallel.Map(workers, n, func(i int) (*place.Admitter, error) {
		tree := topology.New(spec)
		return place.NewAdmitter(tree, newPlacer(tree)), nil
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{shards: shards}, nil
}

// Size returns the number of shards.
func (c *Cluster) Size() int { return len(c.shards) }

// Shard returns shard i's admitter.
func (c *Cluster) Shard(i int) *place.Admitter { return c.shards[i] }

// Load returns shard i's occupancy snapshot, read from its tally and
// its tree's fixed slot capacity.
func (c *Cluster) Load(i int) Load {
	adm := c.shards[i]
	reserved, slots, tenants := adm.Tally().Gauges()
	tree := adm.Tree()
	return Load{ReservedMbps: reserved, SlotsUsed: slots, SlotsTotal: tree.SlotsTotal(tree.Root()), Tenants: tenants}
}

// Loads returns a snapshot of every shard's occupancy, indexed by shard
// ID — the input handed to dispatch policies.
func (c *Cluster) Loads() []Load {
	loads := make([]Load, len(c.shards))
	for i := range c.shards {
		loads[i] = c.Load(i)
	}
	return loads
}

// Stats returns every shard's admission counters, indexed by shard ID.
func (c *Cluster) Stats() []place.AdmitStats {
	stats := make([]place.AdmitStats, len(c.shards))
	for i, s := range c.shards {
		stats[i] = s.Stats()
	}
	return stats
}
