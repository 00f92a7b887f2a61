package cluster

import (
	"cloudmirror/internal/place"
	"cloudmirror/internal/topology"
)

// Replay: reconstruction of shards and tenants from a durability
// snapshot plus a write-ahead-log suffix. The methods here are driven
// single-threaded by the recovery path of package guarantee; nothing
// else should call them, and no live traffic may run concurrently.
// Counters advance only through the shard's tally (see place.Tally),
// which recovery restores and then folds the logged events into.

// Attach materializes a live tenant from a snapshot record without
// touching the ledger: the imported ledger bits already include the
// tenant. The lifecycle event is still published, so a dataplane sink
// rebuilds its per-tenant enforcement state.
func (s *Shard) Attach(rec place.GrantRecord) *Tenant {
	return s.admit(s.adm.AttachGrant(rec), rec.Graph)
}

// ReplayAdmit commits a recorded admission exactly like a live Place:
// the recorded delta is applied through the admitter, which folds the
// admission, and the lifecycle event is published to the sink.
func (s *Shard) ReplayAdmit(ev place.Event) *Tenant {
	return s.admit(s.adm.ReplayAdmit(ev), ev.Graph)
}

// ObserveDemand feeds one recorded arrival's per-VM demand to the
// shard's placer demand estimator (if it keeps one) — the replay-time
// stand-in for the observation the placer made when it actually ran.
func (s *Shard) ObserveDemand(perVM float64) { s.adm.ObserveDemand(perVM) }

// PlacerState exports the shard's placer demand-estimator state for a
// snapshot; ok is false when the placer keeps none.
func (s *Shard) PlacerState() (v float64, ok bool) { return s.adm.PlacerState() }

// RestorePlacerState overwrites the placer demand-estimator state with
// a snapshot value.
func (s *Shard) RestorePlacerState(v float64) { s.adm.RestorePlacerState(v) }

// ExportLedger copies the shard tree's mutable ledger state out
// byte-exactly under the admission lock.
func (s *Shard) ExportLedger() topology.Ledger { return s.adm.ExportLedger() }

// Record exports the tenant's durable state for a snapshot. It reports
// false when the tenant was already released (a snapshot racing a
// departure must simply skip it).
func (t *Tenant) Record() (place.GrantRecord, bool) { return t.ad.Record() }

// ReplayResize commits a recorded resize exactly like a live Resize:
// the net delta is applied through the admitter, which folds the
// change, and the lifecycle event is published.
func (t *Tenant) ReplayResize(ev place.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ad.ReplayResize(ev)
	t.publish(place.EventResized, ev.Graph)
}
