package cluster

import (
	"math"

	"cloudmirror/internal/place"
	"cloudmirror/internal/topology"
)

// Replay: reconstruction of shards, tenants, and dispatch state from a
// durability snapshot plus a write-ahead-log suffix. The methods here
// are driven single-threaded by the recovery path of package guarantee;
// nothing else should call them, and no live traffic may run
// concurrently.

// Attach materializes a live tenant from a snapshot record without
// touching the ledger, the gauges, or the counters: the imported ledger
// bits already include the tenant and RestoreGauges supplies the
// aggregate state. The lifecycle event is still published, so a
// dataplane sink rebuilds its per-tenant enforcement state.
func (s *Shard) Attach(rec place.GrantRecord) *Tenant {
	ad := s.adm.AttachGrant(rec)
	res := ad.Reservation()
	ten := &Tenant{
		shard:        s,
		ad:           ad,
		key:          rec.Key,
		id:           rec.ID,
		reservedMbps: res.TotalReserved(),
		vms:          res.Placement().VMs(),
	}
	if s.sink != nil {
		s.sink.Publish(place.Event{
			Kind:      place.EventAdmitted,
			Key:       rec.Key,
			ID:        rec.ID,
			Graph:     rec.Graph,
			Placement: res.Placement(),
		})
	}
	return ten
}

// ReplayAdmit commits a recorded admission exactly like a live Place:
// the recorded delta is applied through the admitter, the gauges
// advance by the tenant's footprint, and the lifecycle event is
// published to the sink.
func (s *Shard) ReplayAdmit(ev place.Event) *Tenant {
	ad := s.adm.ReplayAdmit(ev)
	res := ad.Reservation()
	ten := &Tenant{
		shard:        s,
		ad:           ad,
		key:          ev.Key,
		id:           ev.ID,
		reservedMbps: res.TotalReserved(),
		vms:          res.Placement().VMs(),
	}
	// The live key came from s.seq; keep the counter ahead of every
	// replayed key so post-recovery admissions never reuse one.
	if cur := s.seq.Load(); ev.Key > cur {
		s.seq.Store(ev.Key)
	}
	s.reserved.add(ten.reservedMbps)
	s.slots.Add(int64(ten.vms))
	s.tenants.Add(1)
	if s.sink != nil {
		s.sink.Publish(place.Event{
			Kind:      place.EventAdmitted,
			Key:       ev.Key,
			ID:        ev.ID,
			Graph:     ev.Graph,
			Placement: res.Placement(),
		})
	}
	return ten
}

// ReplayReject counts one recorded capacity rejection at this shard.
func (s *Shard) ReplayReject() { s.adm.ReplayReject() }

// ReplayFail counts one recorded non-capacity failure at this shard.
func (s *Shard) ReplayFail() { s.adm.ReplayFail() }

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

// RestoreAdmitStats overwrites the shard's admission counters with
// snapshot values.
func (s *Shard) RestoreAdmitStats(st place.AdmitStats) { s.adm.RestoreStats(st) }

// RestoreGauges overwrites the shard's load gauges and key counter with
// snapshot values. The reserved gauge is restored bit-exactly: its live
// value carries float residue from the full add/subtract history, so it
// cannot be reconstructed by summing the surviving tenants.
func (s *Shard) RestoreGauges(reservedMbps float64, slots, tenants, seq int64) {
	s.reserved.bits.Store(math.Float64bits(reservedMbps))
	s.slots.Store(slots)
	s.tenants.Store(tenants)
	s.seq.Store(seq)
}

// ExportGauges snapshots the shard's load gauges and key counter for a
// durability snapshot; the reserved gauge is read bit-exactly (see
// RestoreGauges for why that matters).
func (s *Shard) ExportGauges() (reservedMbps float64, slots, tenants, seq int64) {
	return s.reserved.load(), s.slots.Load(), s.tenants.Load(), s.seq.Load()
}

// ExportLedger copies the shard tree's mutable ledger state out
// byte-exactly under the admission lock.
func (s *Shard) ExportLedger() topology.Ledger { return s.adm.ExportLedger() }

// Record exports the tenant's durable state for a snapshot. It reports
// false when the tenant was already released (a snapshot racing a
// departure must simply skip it).
func (t *Tenant) Record() (place.GrantRecord, bool) {
	if t.released.Load() {
		return place.GrantRecord{}, false
	}
	rec := t.ad.Record()
	rec.Key, rec.ID = t.key, t.id
	return rec, true
}

// ReplayResize commits a recorded resize exactly like a live Resize:
// the net delta is applied through the admitter, the gauges advance by
// the change, and the lifecycle event is published.
func (t *Tenant) ReplayResize(ev place.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ad.ReplayResize(ev)
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
			Graph:     ev.Graph,
			Placement: res.Placement(),
		})
	}
}

// ID returns the caller-chosen tenant ID from the admitting request.
func (t *Tenant) ID() int64 { return t.id }

// ReservedMbps returns the tenant's cached total reserved bandwidth —
// the exact amount its Release will subtract from the shard gauge.
func (t *Tenant) ReservedMbps() float64 { return t.reservedMbps }
