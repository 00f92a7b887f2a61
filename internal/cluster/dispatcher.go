package cluster

import (
	"errors"

	"cloudmirror/internal/place"
)

// Dispatcher routes tenant requests across a cluster's shards: the
// policy picks the first shard to try, and when a shard rejects for
// capacity (place.ErrRejected) the dispatcher fails over to the
// remaining shards in wrap-around ID order until one admits or every
// shard has rejected. Non-capacity placement errors surface
// immediately — an internal placer failure on one shard must never be
// masked by retrying it elsewhere.
//
// Place is safe to call from any goroutine: shards admit independently
// under their own locks, and the dispatcher keeps no state of its own —
// each walk's end folds into the tally of the shard that decided it, so
// concurrent requests routed to different shards proceed fully in
// parallel.
type Dispatcher struct {
	c      *Cluster
	policy Policy
}

// DispatchStats are a Dispatcher's monotonic counters, summed over the
// shards' tallies.
type DispatchStats struct {
	// Admitted and Rejected partition the completed requests: Rejected
	// counts requests every shard rejected for capacity.
	Admitted, Rejected int64
	// Failovers counts extra placement attempts after a shard rejected
	// a request that another shard later saw (admitted or not); it
	// measures how often the policy's first pick was wrong.
	Failovers int64
}

// NewDispatcher routes requests over c using the given policy.
func NewDispatcher(c *Cluster, policy Policy) *Dispatcher {
	return &Dispatcher{c: c, policy: policy}
}

// Cluster returns the shard fleet the dispatcher routes over.
func (d *Dispatcher) Cluster() *Cluster { return d.c }

// Policy returns the dispatch policy in use.
func (d *Dispatcher) Policy() Policy { return d.policy }

// Place admits the request on the policy's pick, failing over through
// every remaining shard (wrap-around ID order) on capacity rejections.
// If all shards reject, the last rejection is returned (it wraps
// place.ErrRejected); any other placement error aborts the request
// immediately.
func (d *Dispatcher) Place(req *place.Request) (*Tenant, error) {
	ten, _, _, err := d.PlaceTraced(req)
	return ten, err
}

// PlaceTraced is Place plus the routing trace a write-ahead log needs
// to replay the failover walk: the policy's first pick and the shard
// the walk ended on (the admitting shard, the last rejecting shard, or
// the shard whose non-capacity failure aborted the walk). Every shard
// from first to last in wrap-around order saw the request.
func (d *Dispatcher) PlaceTraced(req *place.Request) (ten *Tenant, first, last int, err error) {
	n := d.c.Size()
	if lf, ok := d.policy.(loadFree); ok {
		first = lf.PickN(n) // no snapshot for load-indifferent policies
	} else {
		first = d.policy.Pick(d.c.Loads())
	}
	for k := 0; k < n; k++ {
		last = (first + k) % n
		ten, err = d.c.Shard(last).Place(req)
		if err == nil || !errors.Is(err, place.ErrRejected) {
			break
		}
	}
	d.foldWalk(first, last, ten, err)
	return ten, first, last, err
}

// foldWalk folds a request's walk from shard first to shard last into
// the tally of last, the shard that decided it.
func (d *Dispatcher) foldWalk(first, last int, ten *Tenant, err error) {
	kind := place.EventAdmitted
	switch {
	case ten != nil:
	case errors.Is(err, place.ErrRejected):
		kind = place.EventRejected
	default:
		kind = place.EventFailed
	}
	d.c.Shard(last).Tally().Fold(place.Event{Kind: kind, First: first, Shard: last}, d.c.Size())
}

// Stats reports the dispatcher's counters so far: every shard's
// admissions, and the walks that exhausted the fleet or failed over.
func (d *Dispatcher) Stats() DispatchStats {
	var st DispatchStats
	for _, s := range d.c.shards {
		t := s.Tally().State()
		st.Admitted += t.Admitted
		st.Rejected += t.Exhausted
		st.Failovers += t.Failovers
	}
	return st
}

// Dispatched returns how many requests the dispatcher has routed, each
// one policy pick: the count a stateful policy is restored to.
func (d *Dispatcher) Dispatched() uint64 {
	var n int64
	for _, s := range d.c.shards {
		n += s.Tally().State().Dispatched
	}
	return uint64(n)
}
