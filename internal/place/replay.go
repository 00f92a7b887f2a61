package place

import (
	"math"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Replay: deterministic reconstruction of an admitter from a ledger
// snapshot plus a write-ahead-log suffix of Events. The shared ledger
// only ever advances by delta application, so replaying the recorded
// deltas onto the imported snapshot bits reproduces the live tree
// byte-exactly — including the float residue departed tenants left
// behind. Replay never runs a placer: placements, footprints, and
// rejection outcomes come from the log, and placer-internal estimator
// state is fed through DemandObserver.
//
// All replay methods assume single-threaded recovery: no concurrent
// Place/Resize/Release may run until recovery finishes.

// DemandObserver is the optional placer interface for demand-estimator
// state. Placers that adapt to observed tenant demand (cloudmirror's
// EMA, §4.4) implement it so the durability layer can snapshot the
// estimator and re-feed recorded arrivals during replay; stateless
// placers simply don't implement it.
type DemandObserver interface {
	// ObserveDemand folds one arrival's per-VM bandwidth demand into the
	// estimator. Place calls it on every well-formed request, admitted
	// or not; replay calls it once per shard whose placer ran.
	ObserveDemand(perVM float64)
	// DemandState exports the estimator for a snapshot.
	DemandState() float64
	// RestoreDemandState overwrites the estimator with a snapshot value.
	RestoreDemandState(v float64)
}

// GrantRecord is the serializable form of one live grant in a ledger
// snapshot: everything needed to attach an equivalent grant to a
// recovered admitter without re-running placement or re-applying its
// delta (the snapshot's ledger bits already carry every live tenant).
type GrantRecord struct {
	// Key is the shard-unique grant key.
	Key int64 `json:"key"`
	// ID is the caller-chosen tenant ID.
	ID int64 `json:"id"`
	// Graph is the tenant's TAG when it was priced by it (the resize
	// precondition); nil otherwise.
	Graph *tag.Graph `json:"graph,omitempty"`
	// HA is the tenant's availability requirement.
	HA HASpec `json:"ha"`
	// Placement is where the tenant's VMs sit.
	Placement Placement `json:"placement"`
	// Resources is the request's per-tier per-VM demand vectors; nil for
	// slot-only tenants.
	Resources [][]float64 `json:"resources,omitempty"`
	// Delta is the tenant's full canonical footprint (what its Release
	// must negate).
	Delta topology.Delta `json:"delta"`
}

// replayReservation rebuilds a grant's reservation from recorded state.
// Uplink holdings come from the footprint's link entries; zero-valued
// holdings the live map may have carried are dropped by the canonical
// delta, which is harmless — reads default to zero and the bit-stable
// TotalReserved sum is unchanged (adding 0.0 is an exact identity).
func replayReservation(tree *topology.Tree, pl Placement, resources [][]float64, d topology.Delta) *Reservation {
	reserved := make(map[topology.NodeID][2]float64, len(d.Links))
	for _, l := range d.Links {
		reserved[l.Node] = [2]float64{l.Out, l.In}
	}
	return &Reservation{
		tree:      tree,
		placement: pl,
		reserved:  reserved,
		resources: resources,
		ownsSlots: true,
		released:  true, // inspection-only, like the live admit path
	}
}

// AttachGrant materializes a live grant from a snapshot record without
// touching the ledger — the imported snapshot bits already include the
// tenant. Its slots fold back into the restored tally (see
// Tally.Restore) as a kindless event, its bandwidth is already in the
// restored gauge, and the sink learns of it as an admission, so a
// dataplane rebuilds its per-tenant state.
func (a *Admitter) AttachGrant(rec GrantRecord) *Admitted {
	ad := a.replayed(rec.Placement, rec.Resources, rec.Delta, rec.Graph, rec.HA)
	ad.key, ad.id = rec.Key, rec.ID
	ev := ad.admission(ad.event(0))
	a.tally.Fold(Event{First: -1, VMs: ev.VMs}, 1)
	if a.sink != nil {
		a.sink.Publish(ev)
	}
	return ad
}

// ReplayArrival re-applies this admitter's part of one logged
// dispatch-path arrival (ev.First >= 0): the placer's demand estimator
// observes the request if a placer ran on it, and the outcome folds as
// it did live. decided marks the shard that decided the request,
// ev.Shard; every other shard on the walk rejected it for capacity. An
// admission applies the recorded delta to the same pre-event ledger
// bits the live commit applied it to, so the resulting tree is
// byte-identical (the delta bit-exactness contract), and folds as it
// did live — its key is the tally's admitted count, which the caller
// checks against ev.Key. It returns the grant for an admission, nil
// otherwise.
func (a *Admitter) ReplayArrival(ev Event, decided bool) *Admitted {
	// NaN marks requests without a TAG (older builds accepted a
	// caller-supplied model instead), and validation failures never
	// reached a placer at all.
	if o, ok := a.placer.(DemandObserver); ok && !math.IsNaN(ev.Demand) && ev.Reason != ReasonInvalidRequest {
		a.mu.Lock()
		o.ObserveDemand(ev.Demand)
		a.mu.Unlock()
	}
	ev.First = -1 // this shard's outcome, not the walk's end
	if !decided {
		ev.Kind = EventRejected
	}
	if ev.Kind != EventAdmitted {
		a.tally.Fold(ev, 1)
		return nil
	}
	a.mu.Lock()
	a.tree.Apply(ev.Delta)
	a.mu.Unlock()
	ad := a.replayed(ev.Placement, ev.Resources, ev.Delta, ev.Graph, ev.HA)
	ad.id = ev.ID
	ad.admitted(ev)
	return ad
}

// replayed builds a grant from recorded state.
func (a *Admitter) replayed(pl Placement, resources [][]float64, d topology.Delta, g *tag.Graph, ha HASpec) *Admitted {
	return &Admitted{a: a, res: replayReservation(a.tree, pl, resources, d), delta: d, graph: g, ha: ha}
}

// PlacerState exports the placer's demand-estimator state for a
// snapshot; ok is false when the placer keeps none. Safe against
// concurrent admissions: the placer only runs under the admission lock,
// which this takes.
func (a *Admitter) PlacerState() (v float64, ok bool) {
	o, ok := a.placer.(DemandObserver)
	if !ok {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return o.DemandState(), true
}

// RestorePlacerState overwrites the placer's demand-estimator state with
// a snapshot value; a no-op for placers that keep none.
func (a *Admitter) RestorePlacerState(v float64) {
	if o, ok := a.placer.(DemandObserver); ok {
		o.RestoreDemandState(v)
	}
}

// ExportLedger copies the shared tree's mutable ledger state out
// byte-exactly under the admission lock, so a snapshot taken during
// live traffic never reads a half-committed placement.
func (a *Admitter) ExportLedger() topology.Ledger {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tree.ExportLedger()
}

// Record exports the grant's durable state for a snapshot. It reports
// false when the grant was already released (a snapshot racing a
// departure must simply skip it).
func (ad *Admitted) Record() (GrantRecord, bool) {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	if ad.released {
		return GrantRecord{}, false
	}
	return GrantRecord{
		Key:       ad.key,
		ID:        ad.id,
		Graph:     ad.graph,
		HA:        ad.ha,
		Placement: ad.res.placement,
		Resources: ad.res.resources,
		Delta:     ad.delta,
	}, true
}

// ReplayResize commits a recorded resize: the net old-to-new delta is
// applied exactly as the live Resize applied it, the grant's
// reservation, footprint, and graph are swapped to the recorded after
// state, and the resize folds and publishes as it did live.
func (ad *Admitted) ReplayResize(ev Event) {
	ad.gmu.Lock()
	defer ad.gmu.Unlock()
	a := ad.a
	a.mu.Lock()
	a.tree.Apply(topology.Merge(ad.delta.Negate(), ev.Delta))
	a.mu.Unlock()
	g := ad.graph
	if ev.Graph != nil {
		g = ev.Graph
	}
	ad.resized(replayReservation(a.tree, ev.Placement, ev.Resources, ev.Delta), ev.Delta, g)
}
