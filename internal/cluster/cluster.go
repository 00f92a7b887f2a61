// Package cluster scales admission beyond one datacenter tree: it
// manages a fleet of independent shards — each its own topology tree
// behind a thread-safe place.Admitter — and routes tenant requests
// across them through a Dispatcher with a pluggable placement policy
// (round-robin, least-loaded, power-of-two-choices) and per-shard
// failover.
//
// A single tree serializes every admission decision behind one mutex
// (see place.Admitter), so one tree is a scalability ceiling. Shards
// share nothing — no tree state, no locks — so admissions on different
// shards proceed fully in parallel; the only cross-shard state is the
// dispatcher's lock-free load snapshot, which policies read to route
// requests toward spare capacity.
package cluster

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// atomicFloat64 is a lock-free float64 accumulator (CAS on the bit
// pattern), used for the per-shard reserved-bandwidth gauge.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) add(d float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (f *atomicFloat64) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Load is a point-in-time snapshot of one shard's occupancy, the input
// to dispatch policies. All fields are maintained with atomics outside
// the shard's admission lock, so reading a Load never blocks an
// in-flight placement; under concurrent admission the snapshot is
// approximate (each field is individually, not jointly, consistent),
// which is exactly the information a real load balancer would have.
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
// the place.Admitter serializes ledger mutations.
type Shard struct {
	id         int
	adm        *place.Admitter
	tree       *topology.Tree
	slotsTotal int

	// The load gauges are updated on every admission, resize, and
	// release, concurrently from all workers. Each sits on its own
	// cache line (see telemetry.go) so writers of different gauges
	// never false-share; reserved stays a single (padded) atomic rather
	// than a striped sum because recovery restores it bit-for-bit and a
	// float fold would re-order the additions.
	_        cacheLinePad
	reserved atomicFloat64
	_        cacheLinePad
	slots    atomic.Int64
	_        cacheLinePad
	tenants  atomic.Int64
	_        cacheLinePad

	// seq hands out the shard-unique grant keys carried by lifecycle
	// events; sink, when set, receives those events.
	seq  atomic.Int64
	_    cacheLinePad
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

// Load returns the shard's occupancy snapshot.
func (s *Shard) Load() Load {
	return Load{
		ReservedMbps: s.reserved.load(),
		SlotsUsed:    int(s.slots.Load()),
		SlotsTotal:   s.slotsTotal,
		Tenants:      int(s.tenants.Load()),
	}
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
	return s.admit(ad, req), nil
}

// PlaceBatch admits the requests in order through one admission
// critical section (see place.Admitter.AdmitBatch). Tenants and errors
// are parallel to reqs; a batch is not atomic — earlier admissions
// stand when later elements reject. Gauges and lifecycle events are
// updated per admitted element exactly as Place would.
func (s *Shard) PlaceBatch(reqs []*place.Request) ([]*Tenant, []error) {
	grants, errs := s.adm.AdmitBatch(reqs)
	tens := make([]*Tenant, len(reqs))
	for i, ad := range grants {
		if ad != nil {
			tens[i] = s.admit(ad, reqs[i])
		}
	}
	return tens, errs
}

// admit wraps a committed admission as a Tenant: it takes the next
// grant key, adds the tenant to the load gauges, and publishes the
// admission event. Shards serve the guarantee service, which prices
// every tenant by its TAG, so the event carries that TAG for the
// dataplane to enforce.
func (s *Shard) admit(ad *place.Admitted, req *place.Request) *Tenant {
	res := ad.Reservation()
	ten := &Tenant{
		shard:        s,
		ad:           ad,
		key:          s.seq.Add(1),
		id:           req.ID,
		reservedMbps: res.TotalReserved(),
		vms:          res.Placement().VMs(),
	}
	s.reserved.add(ten.reservedMbps)
	s.slots.Add(int64(ten.vms))
	s.tenants.Add(1)
	if s.sink != nil {
		s.sink.Publish(place.Event{
			Kind:      place.EventAdmitted,
			Key:       ten.key,
			ID:        req.ID,
			Graph:     req.Graph,
			Placement: res.Placement(),
		})
	}
	return ten
}

// Tenant is a committed tenant admitted through a Shard (directly or
// via a Dispatcher). Release and Resize are safe to call from any
// goroutine; operations on one tenant serialize on its own lock, and
// Release at most once has an effect.
type Tenant struct {
	shard *Shard
	ad    *place.Admitted
	// key is the shard-unique grant key lifecycle events carry; id is
	// the caller-chosen request ID.
	key, id int64
	// mu serializes Resize against Release so the cached gauge
	// contributions below stay consistent with what the shard gauges
	// actually carry.
	mu sync.Mutex
	// reservedMbps and vms are cached at admission (and refreshed by
	// Resize) so Release subtracts exactly what Place added to the
	// shard gauges (and skips a second TotalReserved walk).
	reservedMbps float64
	vms          int
	released     atomic.Bool
}

// Shard returns the shard hosting the tenant.
func (t *Tenant) Shard() *Shard { return t.shard }

// Key returns the shard-unique grant key carried by the tenant's
// lifecycle events, so out-of-band consumers (the enforcement
// dataplane) can address the tenant's state.
func (t *Tenant) Key() int64 { return t.key }

// Reservation exposes the underlying reservation for inspection.
func (t *Tenant) Reservation() *place.Reservation { return t.ad.Reservation() }

// Resize grows or shrinks the tenant in place to newGraph through the
// shard's admitter (see place.Admitted.Resize), refreshing the
// shard's load gauges by the change. On failure the shard and the
// tenant are exactly as before, and the error carries a typed
// place.Reason.
func (t *Tenant) Resize(newGraph *tag.Graph) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.released.Load() {
		return place.Rejectf("resize", place.ReasonReleased, "tenant already released")
	}
	if err := t.ad.Resize(newGraph); err != nil {
		return err
	}
	res := t.ad.Reservation()
	reserved, vms := res.TotalReserved(), res.Placement().VMs()
	t.shard.reserved.add(reserved - t.reservedMbps)
	t.shard.slots.Add(int64(vms - t.vms))
	t.reservedMbps, t.vms = reserved, vms
	if t.shard.sink != nil {
		t.shard.sink.Publish(place.Event{
			Kind:      place.EventResized,
			Key:       t.key,
			ID:        t.id,
			Graph:     newGraph,
			Placement: res.Placement(),
		})
	}
	return nil
}

// Release returns the tenant's slots and bandwidth to its shard. It
// reports whether this call performed the release; subsequent calls
// are no-ops and report false.
func (t *Tenant) Release() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.released.CompareAndSwap(false, true) {
		return false
	}
	t.ad.Release()
	t.shard.reserved.add(-t.reservedMbps)
	t.shard.slots.Add(int64(-t.vms))
	t.shard.tenants.Add(-1)
	if t.shard.sink != nil {
		t.shard.sink.Publish(place.Event{Kind: place.EventReleased, Key: t.key, ID: t.id})
	}
	return true
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
