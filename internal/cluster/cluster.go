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
	"sync"

	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
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

// Shard is one independent datacenter tree with its own admitter.
// Place and Release on different shards never contend; within a shard
// the place.Admitter serializes ledger mutations and folds every
// outcome into the shard's tally.
type Shard struct {
	id         int
	adm        *place.Admitter
	tree       *topology.Tree
	slotsTotal int
	// sink, when set, receives the shard's lifecycle events.
	sink place.EventSink
}

// SetSink installs the lifecycle-event consumer for this shard:
// admissions, resizes, and releases are published to it with the
// tenant's footprint (see place.Event). Must be called before the
// shard serves requests; a nil sink (the default) disables emission.
func (s *Shard) SetSink(sink place.EventSink) { s.sink = sink }

// ID is the shard's index within its cluster.
func (s *Shard) ID() int { return s.id }

// SlotsTotal is the shard's VM slot capacity (fixed at construction).
func (s *Shard) SlotsTotal() int { return s.slotsTotal }

// Tree exposes the shard's datacenter tree for read-only inspection
// (level names, per-level reserved totals). Mutating it behind the
// admission path corrupts the ledger; concurrent admissions make reads
// approximate.
func (s *Shard) Tree() *topology.Tree { return s.tree }

// Name identifies the shard's placement algorithm.
func (s *Shard) Name() string { return s.adm.Name() }

// Tally exposes the shard's fold of its lifecycle events: the counters,
// the dispatch walks decided here, and the load gauges.
func (s *Shard) Tally() *place.Tally { return s.adm.Tally() }

// Load returns the shard's occupancy snapshot.
func (s *Shard) Load() Load {
	reserved, slots, tenants := s.Tally().Gauges()
	return Load{ReservedMbps: reserved, SlotsUsed: slots, SlotsTotal: s.slotsTotal, Tenants: tenants}
}

// Stats returns the shard's monotonic admission counters.
func (s *Shard) Stats() place.AdmitStats { return s.adm.Stats() }

// Place attempts to admit the request on this shard. It is safe to call
// from any goroutine; on success the returned Tenant owns the tenant's
// resources until its Release.
func (s *Shard) Place(req *place.Request) (*Tenant, error) {
	ad, err := s.adm.Place(req)
	if err != nil {
		return nil, err
	}
	return s.admit(ad, req.Graph), nil
}

// admit wraps a committed admission as a Tenant and publishes its
// admission event. Shards serve the guarantee service, which prices
// every tenant by its TAG, so the event carries that TAG for the
// dataplane to enforce.
func (s *Shard) admit(ad *place.Admitted, graph *tag.Graph) *Tenant {
	ten := &Tenant{shard: s, ad: ad}
	ten.publish(place.EventAdmitted, graph)
	return ten
}

// Tenant is a committed tenant admitted through a Shard (directly or
// via a Dispatcher). Release and Resize are safe to call from any
// goroutine; operations on one tenant serialize on its own lock, and
// Release at most once has an effect.
type Tenant struct {
	shard *Shard
	ad    *place.Admitted
	// mu serializes Resize against Release so the tenant's lifecycle
	// events reach the sink in the order they took effect.
	mu sync.Mutex
}

// Shard returns the shard hosting the tenant.
func (t *Tenant) Shard() *Shard { return t.shard }

// Key returns the shard-unique grant key carried by the tenant's
// lifecycle events, so out-of-band consumers (the enforcement
// dataplane) can address the tenant's state.
func (t *Tenant) Key() int64 { return t.ad.Key() }

// ID returns the caller-chosen tenant ID from the admitting request.
func (t *Tenant) ID() int64 { return t.ad.ID() }

// Reservation exposes the underlying reservation for inspection.
func (t *Tenant) Reservation() *place.Reservation { return t.ad.Reservation() }

// Resize grows or shrinks the tenant in place to newGraph through the
// shard's admitter (see place.Admitted.Resize), which folds the change
// into the shard's tally, and reports whether a resize committed. On
// failure the shard and the tenant are exactly as before, and the error
// carries a typed place.Reason. A resize that keeps every tier size
// commits nothing and publishes nothing.
func (t *Tenant) Resize(newGraph *tag.Graph) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	committed, err := t.ad.Resize(newGraph)
	if committed {
		t.publish(place.EventResized, newGraph)
	}
	return committed, err
}

// Release returns the tenant's slots and bandwidth to its shard. It
// reports whether this call performed the release; subsequent calls
// are no-ops and report false.
func (t *Tenant) Release() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.ad.Release() {
		return false
	}
	t.publish(place.EventReleased, nil)
	return true
}

// publish delivers one of the tenant's lifecycle events to the shard's
// sink, if any: the graph and placement it now has, none for a release.
func (t *Tenant) publish(kind place.EventKind, graph *tag.Graph) {
	if t.shard.sink == nil {
		return
	}
	ev := place.Event{Kind: kind, Key: t.Key(), ID: t.ID()}
	if kind != place.EventReleased {
		ev.Graph, ev.Placement = graph, t.ad.Reservation().Placement()
	}
	t.shard.sink.Publish(ev)
}

// Cluster is a fixed fleet of shards built from one topology spec and
// one placement algorithm. Shards are independent: each owns its tree
// and placer, so the cluster as a whole admits concurrently on as many
// shards as there are callers.
type Cluster struct {
	shards []*Shard
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
	shards, err := parallel.Map(workers, n, func(i int) (*Shard, error) {
		tree := topology.New(spec)
		return &Shard{
			id:         i,
			adm:        place.NewAdmitter(tree, newPlacer(tree)),
			tree:       tree,
			slotsTotal: tree.SlotsTotal(tree.Root()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{shards: shards}, nil
}

// Size returns the number of shards.
func (c *Cluster) Size() int { return len(c.shards) }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Loads returns a snapshot of every shard's occupancy, indexed by shard
// ID — the input handed to dispatch policies.
func (c *Cluster) Loads() []Load {
	loads := make([]Load, len(c.shards))
	for i, s := range c.shards {
		loads[i] = s.Load()
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
