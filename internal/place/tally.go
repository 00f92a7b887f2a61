package place

import (
	"math"
	"sync/atomic"
)

// Tally is one shard's fold of the lifecycle events it took part in:
// the counters Stats reports, the dispatch walks that ended at the
// shard, and the load gauges dispatch policies read. Every one of them
// advances only through Fold — the Admitter folds each outcome it
// produces, a dispatcher folds each walk's end, and recovery folds the
// logged events through the same function — so a tally restored from a
// snapshot and advanced by replay equals the one the crashed service
// held. What is a function of the tally is derived, not kept: live
// tenants are admitted − released, and an admission's grant key is the
// admitted count it raised.
//
// Fields are atomics folded outside the admission lock, so reading one
// never blocks a placement; a reader sees each field individually, not
// jointly, consistent.
type Tally struct {
	admitted, rejected, failed, released, resized atomic.Int64
	exhausted, failovers, dispatched              atomic.Int64

	// reserved is a single atomic, not a striped sum, because recovery
	// restores it bit for bit and a re-ordered float fold would not
	// reproduce it.
	reserved atomicFloat64
	slots    atomic.Int64
}

// TallyState is a Tally's value as a snapshot records it. Occupied slots
// are not recorded: they are the sum over the live grants, which
// recovery re-attaches.
type TallyState struct {
	AdmitStats
	// Exhausted, Failovers and Dispatched cover the dispatch walks that
	// ended at this shard: requests every shard rejected, attempts
	// beyond each request's first shard, and requests.
	Exhausted, Failovers, Dispatched int64
	// ReservedMbps is the reserved-bandwidth gauge. It carries the float
	// residue of the whole admission history, so it is stored, not
	// re-summed over the surviving tenants.
	ReservedMbps float64
}

// Fold advances the tally by one event. It returns the grant key an
// admission takes — the admitted count it raised — and 0 otherwise.
//
// An event with First < 0 is one outcome at this shard: its Kind is
// counted, and Mbps and VMs move the gauges. A kindless one moves only
// the gauges: a snapshot's grant re-attached by recovery, whose
// bandwidth the restored gauge already holds.
//
// An event with First >= 0 ends a dispatch walk at its deciding shard,
// Shard, in a fleet of `shards`: the request counts as dispatched, every
// shard tried before Shard as a failover, and a rejection as the fleet
// exhausted. The shards on the walk folded their own outcomes.
func (t *Tally) Fold(ev Event, shards int) int64 {
	if ev.First >= 0 {
		t.dispatched.Add(1)
		t.failovers.Add(int64((ev.Shard - ev.First + shards) % shards))
		if ev.Kind == EventRejected {
			t.exhausted.Add(1)
		}
		return 0
	}
	key := int64(0)
	switch ev.Kind {
	case EventAdmitted:
		key = t.admitted.Add(1)
	case EventRejected:
		t.rejected.Add(1)
	case EventFailed:
		t.failed.Add(1)
	case EventResized:
		t.resized.Add(1)
	case EventReleased:
		t.released.Add(1)
	}
	t.reserved.add(ev.Mbps)
	t.slots.Add(int64(ev.VMs))
	return key
}

// State reads the tally's value for a snapshot.
func (t *Tally) State() TallyState {
	return TallyState{
		AdmitStats: AdmitStats{
			Admitted: t.admitted.Load(),
			Rejected: t.rejected.Load(),
			Failed:   t.failed.Load(),
			Released: t.released.Load(),
			Resized:  t.resized.Load(),
		},
		Exhausted:    t.exhausted.Load(),
		Failovers:    t.failovers.Load(),
		Dispatched:   t.dispatched.Load(),
		ReservedMbps: t.reserved.load(),
	}
}

// Restore overwrites the tally with a snapshot's value, bit-exactly,
// and zeroes the slot gauge for the snapshot's grants to fold back in.
// Driven only by single-threaded recovery.
func (t *Tally) Restore(s TallyState) {
	t.admitted.Store(s.Admitted)
	t.rejected.Store(s.Rejected)
	t.failed.Store(s.Failed)
	t.released.Store(s.Released)
	t.resized.Store(s.Resized)
	t.exhausted.Store(s.Exhausted)
	t.failovers.Store(s.Failovers)
	t.dispatched.Store(s.Dispatched)
	t.reserved.bits.Store(math.Float64bits(s.ReservedMbps))
	t.slots.Store(0)
}

// Gauges reads the load a dispatch policy sees: reserved bandwidth,
// occupied slots, and live tenants.
func (t *Tally) Gauges() (reservedMbps float64, slots, tenants int) {
	return t.reserved.load(), int(t.slots.Load()), int(t.admitted.Load() - t.released.Load())
}

// atomicFloat64 is a lock-free float64 accumulator (CAS on the bit
// pattern).
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
