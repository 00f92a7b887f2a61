package place

import (
	"errors"
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
// ReplayAdmit). Departures go through Admitted.Release, which commits
// the negated delta under the same lock, and resizes through
// Admitted.Resize, which commits the net delta of the tenant's
// old-to-new transition.
//
// The zero value is not usable; construct with NewAdmitter.
type Admitter struct {
	mu     sync.Mutex
	tree   *topology.Tree
	placer Placer
	ck     *topology.Snapshot
	// tally folds every outcome the admitter produces (see Tally).
	tally Tally
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

// Tally exposes the fold of the admitter's outcomes, for the owning
// shard to fold its dispatch walks into and for snapshots.
func (a *Admitter) Tally() *Tally { return &a.tally }

// Place attempts to admit the request on the shared tree. It is safe to
// call from any goroutine. On success the returned Admitted owns the
// tenant's resources until its Release; on failure the tree is exactly
// as if the request had never arrived.
func (a *Admitter) Place(req *Request) (*Admitted, error) {
	if err := ValidateRequest(a.tree, req); err != nil {
		a.foldFailure(err)
		return nil, err
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
		a.foldFailure(err)
		return nil, err
	}
	d := res.Delta()
	a.tree.RestoreSnapshot(a.ck)
	a.tree.Apply(d)
	a.mu.Unlock()
	return a.admitted(req, res, d), nil
}

// admitted wraps a committed placement as a grant and folds its
// admission, which hands the grant its key.
func (a *Admitter) admitted(req *Request, res *Reservation, d topology.Delta) *Admitted {
	res.released = true // inspection-only: departures commit the delta
	ad := &Admitted{a: a, res: res, delta: d, graph: resizableGraph(req), ha: req.HA, id: req.ID}
	ad.mbps, ad.vms = res.TotalReserved(), res.Placement().VMs()
	ad.key = a.tally.Fold(outcome(EventAdmitted, ad.mbps, ad.vms), 1)
	return ad
}

// foldFailure folds a failed placement or resize: a capacity rejection
// or any other failure (malformed request, internal placer error).
func (a *Admitter) foldFailure(err error) {
	kind := EventFailed
	if errors.Is(err, ErrRejected) {
		kind = EventRejected
	}
	a.tally.Fold(outcome(kind, 0, 0), 1)
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
	// so a resize never races a release of the same tenant; the fields
	// below are read and written under it. Lock order: gmu before the
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

// Resize grows or shrinks the tenant in place to newGraph — the
// tenant's TAG with one or more tier sizes changed (per-VM guarantees
// are untouched, §3/§6) — running the placer's incremental auto-scaling
// inside the admission critical section and committing the net
// old-to-new delta in one step. The whole multi-tier transition is
// atomic: on any failure the ledger is byte-identical to before the
// call, the grant is unchanged, and the error carries a typed Reason
// (ReasonUnsupported when the placer cannot resize, ReasonInvalidRequest
// for structural changes, capacity reasons when the datacenter cannot
// host the growth). committed reports whether a resize took effect: it
// is false on every error and when newGraph keeps every tier size.
func (ad *Admitted) Resize(newGraph *tag.Graph) (committed bool, err error) {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	a := ad.a
	if ad.released {
		return false, Rejectf("resize", ReasonReleased, "grant already released")
	}
	rz, ok := a.placer.(Resizer)
	if !ok {
		return false, Rejectf("resize", ReasonUnsupported, "placer %s cannot resize", a.placer.Name())
	}
	if ad.graph == nil {
		return false, Rejectf("resize", ReasonUnsupported, "tenant was not admitted under its TAG model")
	}
	steps, err := resizeSteps(ad.graph, newGraph)
	if err != nil {
		a.foldFailure(err)
		return false, err
	}
	if len(steps) == 0 {
		return false, nil // no size changed
	}

	a.mu.Lock()
	a.tree.Save(a.ck)
	newRes, err := runResize(rz, ad.res, ad.graph, steps, ad.ha)
	if err != nil {
		a.tree.RestoreSnapshot(a.ck)
		a.mu.Unlock()
		a.foldFailure(err)
		return false, err
	}
	newDelta := newRes.Delta()
	a.tree.RestoreSnapshot(a.ck)
	a.tree.Apply(topology.Merge(ad.delta.Negate(), newDelta))
	a.mu.Unlock()
	newRes.released = true // inspection-only, like the admit path
	ad.res, ad.delta, ad.graph = newRes, newDelta, newGraph
	ad.foldResize()
	return true, nil
}

// foldResize folds a committed resize: the footprint moves from the
// one the tally holds to the new reservation's.
func (ad *Admitted) foldResize() {
	mbps, vms := ad.res.TotalReserved(), ad.res.Placement().VMs()
	ad.a.tally.Fold(outcome(EventResized, mbps-ad.mbps, vms-ad.vms), 1)
	ad.mbps, ad.vms = mbps, vms
}

// Release returns the tenant's slots and bandwidth to the shared tree,
// reporting whether this call released it. Subsequent calls are no-ops
// and report false.
func (ad *Admitted) Release() bool {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	if ad.released {
		return false
	}
	ad.released = true
	a := ad.a
	neg := ad.delta.Negate()
	a.mu.Lock()
	a.tree.Apply(neg)
	a.mu.Unlock()
	a.tally.Fold(outcome(EventReleased, -ad.mbps, -ad.vms), 1)
	return true
}
