package cluster

import (
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
// It returns the grant, if a shard admitted the request, and the walk's
// final event — the admission, the last shard's rejection, or the
// non-capacity failure that aborted the walk — with the policy's first
// pick and the deciding shard stamped into First and Shard: what a
// write-ahead log needs to replay the walk (every shard from First to
// Shard in wrap-around order saw the request). The error is the final
// shard's; if all shards reject, it wraps place.ErrRejected.
func (d *Dispatcher) Place(req *place.Request) (*place.Admitted, place.Event, error) {
	n := d.c.Size()
	var first int
	if lf, ok := d.policy.(loadFree); ok {
		first = lf.PickN(n) // no snapshot for load-indifferent policies
	} else {
		first = d.policy.Pick(d.c.Loads())
	}
	var (
		ad  *place.Admitted
		ev  place.Event
		err error
	)
	for k := 0; k < n; k++ {
		last := (first + k) % n
		ad, ev, err = d.c.Shard(last).Place(req)
		ev.First, ev.Shard = first, last
		if ev.Kind != place.EventRejected {
			break
		}
	}
	d.c.Shard(ev.Shard).Tally().Fold(ev, n)
	return ad, ev, err
}

// Replay re-walks a logged dispatch-path event (ev.First >= 0) during
// single-threaded recovery: every shard from First to Shard replays its
// part of the arrival (see place.Admitter.ReplayArrival) and the
// deciding shard folds the walk's end, exactly as Place did live. It
// returns the grant for an admission, nil otherwise.
func (d *Dispatcher) Replay(ev place.Event) *place.Admitted {
	n := d.c.Size()
	steps := (ev.Shard - ev.First + n) % n
	var ad *place.Admitted
	for k := 0; k <= steps; k++ {
		ad = d.c.Shard((ev.First+k)%n).ReplayArrival(ev, k == steps)
	}
	d.c.Shard(ev.Shard).Tally().Fold(ev, n)
	return ad
}

// Stats reports the dispatcher's counters so far: every shard's
// admissions, and the walks that exhausted the fleet or failed over.
func (d *Dispatcher) Stats() DispatchStats {
	var st DispatchStats
	for _, adm := range d.c.shards {
		t := adm.Tally().State()
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
	for _, adm := range d.c.shards {
		n += adm.Tally().State().Dispatched
	}
	return uint64(n)
}
