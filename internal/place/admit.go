package place

import (
	"errors"
	"math"
	"sync"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Admitter is the admission path: it makes one shared datacenter tree
// safe for simultaneous Place and Release calls from many goroutines.
//
// Placement decisions on a single tree must serialize — an admission
// test is only sound against a ledger that cannot change between the
// test and the reservation — so every placement, resize and release
// runs under the admitter's one mutex. Commits go through the topology
// delta layer: the placer runs inside the lock, the ledger is rolled
// back to a byte-exact snapshot, and the recorded net Delta is applied
// in one step. The shared ledger therefore only ever advances by delta
// application — placements that fail (or succeed) leave no float
// residue from the placer's intermediate reserve/rollback arithmetic —
// which is what makes replay exact: recovery applies each logged delta
// to the same ledger bits the live commit applied it to (see
// ReplayArrival). Departures go through Admitted.Release, which commits
// the negated delta under the same lock, and resizes through
// Admitted.Resize, which commits the net delta of the tenant's
// old-to-new transition.
//
// Every outcome becomes one Event, built here where it commits: it is
// folded into the admitter's tally, returned to the caller (whose
// write-ahead log records it), and — for admissions, resizes and
// releases — published to the sink.
//
// The zero value is not usable; construct with NewAdmitter.
type Admitter struct {
	mu     sync.Mutex
	tree   *topology.Tree
	placer Placer
	ck     *topology.Snapshot
	// tally folds every outcome the admitter produces (see Tally).
	tally Tally
	// sink, when set, receives the admitter's lifecycle events.
	sink EventSink
}

// AdmitStats are an Admitter's monotonic counters.
type AdmitStats struct {
	// Admitted and Rejected partition the well-formed admission
	// decisions: Rejected counts only capacity rejections
	// (ErrRejected), the signal the experiments measure.
	Admitted, Rejected int64
	// Failed counts Place errors that are NOT capacity rejections —
	// malformed requests and internal placer failures that callers
	// should surface, never fold into a rejection rate.
	Failed int64
	// Released counts departures.
	Released int64
	// Resized counts successful in-place tenant resizes.
	Resized int64
}

// NewAdmitter wraps the tree and the placer built on it for concurrent
// admission. The tree must be the one the placer mutates; it must not
// be mutated behind the admitter's back afterwards.
func NewAdmitter(tree *topology.Tree, p Placer) *Admitter {
	return &Admitter{tree: tree, placer: p, ck: tree.NewSnapshot()}
}

// Name identifies the underlying algorithm.
func (a *Admitter) Name() string { return a.placer.Name() }

// Tree exposes the admitter's datacenter tree for read-only inspection
// (level names, per-level reserved totals). Mutating it behind the
// admission path corrupts the ledger; concurrent admissions make reads
// approximate.
func (a *Admitter) Tree() *topology.Tree { return a.tree }

// Tally exposes the fold of the admitter's outcomes, for a dispatcher
// to fold the walks it decides here into and for snapshots.
func (a *Admitter) Tally() *Tally { return &a.tally }

// SetSink installs the consumer of the admitter's lifecycle events:
// every admission, resize and release is published to it (see Event).
// Must be called before the admitter serves requests; a nil sink (the
// default) disables publication.
func (a *Admitter) SetSink(sink EventSink) { a.sink = sink }

// Place attempts to admit the request on the shared tree. It is safe to
// call from any goroutine. It returns the outcome's event — an
// admission, a capacity rejection, or a failure — already folded into
// the tally; First is -1 and Shard 0 for a dispatcher to stamp. On
// success the returned Admitted owns the tenant's resources until its
// Release; on failure the tree is exactly as if the request had never
// arrived.
func (a *Admitter) Place(req *Request) (*Admitted, Event, error) {
	if err := ValidateRequest(a.tree, req); err != nil {
		return nil, a.failed(arrival(req), err), err
	}
	// The snapshot save/restore copies the whole mutable ledger
	// (O(nodes), two memcpys of a few hundred KB at paper scale) rather
	// than tracking the placer's touched set; the copies cost a few
	// microseconds against a placement search that costs hundreds, and
	// byte-exactness is what lets recovery replay the logged delta onto
	// the same bits this commit applied it to.
	a.mu.Lock()
	a.tree.Save(a.ck)
	res, err := a.placer.Place(req)
	if err != nil {
		// The placer already rolled back arithmetically; the snapshot
		// restore additionally wipes any float residue of the attempt.
		a.tree.RestoreSnapshot(a.ck)
		a.mu.Unlock()
		return nil, a.failed(arrival(req), err), err
	}
	d := res.Delta()
	a.tree.RestoreSnapshot(a.ck)
	a.tree.Apply(d)
	a.mu.Unlock()
	res.released = true // inspection-only: departures commit the delta
	ad := &Admitted{a: a, res: res, delta: d, graph: resizableGraph(req), ha: req.HA, id: req.ID}
	return ad, ad.admitted(arrival(req)), nil
}

// arrival is the event every outcome of an admission request starts
// from: the request's ID, and its graph's per-VM demand, which replay
// feeds to placer demand estimators — NaN without a graph.
func arrival(req *Request) Event {
	ev := Event{ID: req.ID, First: -1, Demand: math.NaN()}
	if req.Graph != nil {
		ev.Demand = req.Graph.PerVMDemand()
	}
	return ev
}

// failed completes ev as the failed placement or resize err caused,
// folds it, and returns it. It is the one place a failure is
// classified: a capacity rejection (ErrRejected) or any other failure —
// a malformed request or an internal placer error.
func (a *Admitter) failed(ev Event, err error) Event {
	ev.Kind, ev.Reason = EventFailed, ReasonOf(err)
	if errors.Is(err, ErrRejected) {
		ev.Kind = EventRejected
	}
	a.tally.Fold(ev, 1)
	return ev
}

// publish folds one of a grant's lifecycle events into the tally —
// an admission takes its key there — and delivers it to the sink.
// Callers hold the grant's gmu, or own a grant nobody else can reach
// yet, so one grant's events reach the sink in the order they
// committed.
func (a *Admitter) publish(ev *Event) {
	if key := a.tally.Fold(*ev, 1); ev.Kind == EventAdmitted {
		ev.Key = key
	}
	if a.sink != nil {
		a.sink.Publish(*ev)
	}
}

// Stats reports the admission counters so far.
func (a *Admitter) Stats() AdmitStats { return a.tally.State().AdmitStats }

// resizableGraph returns the request's TAG when the admission was
// priced by the TAG itself — the precondition for in-place resizing.
// Tenants admitted under a translated model (VOC, pipes) return nil and
// reject Resize: their reservations were not computed from the graph a
// resize would re-price.
func resizableGraph(req *Request) *tag.Graph {
	if req.Graph != nil && req.Model == Model(req.Graph) {
		return req.Graph
	}
	return nil
}

// Admitted is a committed tenant placed through an Admitter. Release
// and Resize are safe to call from any goroutine; operations on one
// grant serialize on its own lock, and Release at most once has an
// effect.
type Admitted struct {
	a *Admitter

	// gmu serializes grant operations (Resize/Release/Reservation/Record)
	// so a resize never races a release of the same tenant, and the
	// grant's events reach the sink in commit order; the fields below
	// are read and written under it. Lock order: gmu before the
	// admitter's mu.
	gmu      sync.Mutex
	res      *Reservation
	delta    topology.Delta
	graph    *tag.Graph
	ha       HASpec
	released bool
	// key is the shard-unique grant key its admission took; id the
	// caller-chosen request ID. mbps and vms are the footprint the
	// tally holds for the grant, so a resize or release folds exactly
	// their change.
	key, id int64
	mbps    float64
	vms     int
}

// Key returns the grant key the admission took from the tally.
func (ad *Admitted) Key() int64 { return ad.key }

// ID returns the caller-chosen request ID.
func (ad *Admitted) ID() int64 { return ad.id }

// Reservation exposes the underlying reservation for inspection
// (placement, per-uplink holdings). The returned reservation is fixed —
// a Resize swaps in a fresh one — so reading it does not require the
// admission lock.
func (ad *Admitted) Reservation() *Reservation {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	return ad.res
}

// admitted completes ev, the arrival's event (First -1), as the
// admission of a grant built from a committed or recorded reservation,
// then folds and publishes it, which hands the grant its key, and
// returns it.
func (ad *Admitted) admitted(ev Event) Event {
	ev = ad.admission(ev)
	ad.a.publish(&ev)
	ad.key = ev.Key
	return ev
}

// admission completes ev as the grant's admission: its whole
// footprint, which the tally holds for it from then on.
func (ad *Admitted) admission(ev Event) Event {
	ad.mbps, ad.vms = ad.res.TotalReserved(), ad.res.placement.VMs()
	ev.Kind, ev.Graph, ev.Placement, ev.Delta = EventAdmitted, ad.graph, ad.res.placement, ad.delta
	ev.HA, ev.Resources, ev.Mbps, ev.VMs = ad.ha, ad.res.resources, ad.mbps, ad.vms
	return ev
}

// event is the grant's bare event of the given kind: its key and ID,
// outside the dispatch path. Demand is NaN: only an arrival has one.
func (ad *Admitted) event(kind EventKind) Event {
	return Event{Kind: kind, Key: ad.key, ID: ad.id, First: -1, Demand: math.NaN()}
}

// Resize grows or shrinks the tenant in place to newGraph — the
// tenant's TAG with one or more tier sizes changed (per-VM guarantees
// are untouched, §3/§6) — running the placer's incremental auto-scaling
// inside the admission critical section and committing the net
// old-to-new delta in one step. The whole multi-tier transition is
// atomic: on any failure the ledger is byte-identical to before the
// call, the grant is unchanged, and the error carries a typed Reason
// (ReasonUnsupported when the placer cannot resize, ReasonInvalidRequest
// for structural changes, capacity reasons when the datacenter cannot
// host the growth).
//
// The returned event is what the tally folded: EventResized when the
// resize committed, EventRejected/EventFailed for a failure the tally
// counts. Its Kind is zero when nothing was folded: newGraph keeps every
// tier size, the grant was released, or the placer or the grant cannot
// resize at all.
func (ad *Admitted) Resize(newGraph *tag.Graph) (Event, error) {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	a := ad.a
	if ad.released {
		return Event{}, Rejectf("resize", ReasonReleased, "grant already released")
	}
	rz, ok := a.placer.(Resizer)
	if !ok {
		return Event{}, Rejectf("resize", ReasonUnsupported, "placer %s cannot resize", a.placer.Name())
	}
	if ad.graph == nil {
		return Event{}, Rejectf("resize", ReasonUnsupported, "tenant was not admitted under its TAG model")
	}
	steps, err := resizeSteps(ad.graph, newGraph)
	if err != nil {
		return a.failed(ad.event(0), err), err
	}
	if len(steps) == 0 {
		return Event{}, nil // no size changed
	}

	a.mu.Lock()
	a.tree.Save(a.ck)
	newRes, err := runResize(rz, ad.res, ad.graph, steps, ad.ha)
	if err != nil {
		a.tree.RestoreSnapshot(a.ck)
		a.mu.Unlock()
		return a.failed(ad.event(0), err), err
	}
	newDelta := newRes.Delta()
	a.tree.RestoreSnapshot(a.ck)
	a.tree.Apply(topology.Merge(ad.delta.Negate(), newDelta))
	a.mu.Unlock()
	newRes.released = true // inspection-only, like the admit path
	return ad.resized(newRes, newDelta, newGraph), nil
}

// resized swaps the grant to its new reservation, footprint and graph,
// and folds and publishes the resize: the tally's footprint moves from
// the one it holds to the new reservation's.
func (ad *Admitted) resized(res *Reservation, d topology.Delta, g *tag.Graph) Event {
	ad.res, ad.delta, ad.graph = res, d, g
	ev := ad.event(EventResized)
	ev.Graph, ev.Placement, ev.Delta = g, res.placement, d
	mbps, vms := res.TotalReserved(), res.placement.VMs()
	ev.Mbps, ev.VMs = mbps-ad.mbps, vms-ad.vms
	ad.mbps, ad.vms = mbps, vms
	ad.a.publish(&ev)
	return ev
}

// Release returns the tenant's slots and bandwidth to the shared tree
// and returns the folded and published EventReleased. Subsequent calls
// are no-ops and return an event with a zero Kind.
func (ad *Admitted) Release() Event {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	if ad.released {
		return Event{}
	}
	ad.released = true
	a := ad.a
	neg := ad.delta.Negate()
	a.mu.Lock()
	a.tree.Apply(neg)
	a.mu.Unlock()
	ev := ad.event(EventReleased)
	ev.Mbps, ev.VMs = -ad.mbps, -ad.vms
	a.publish(&ev)
	return ev
}
