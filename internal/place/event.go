package place

import (
	"fmt"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// EventKind classifies one Grant lifecycle transition.
type EventKind uint8

// The Grant lifecycle: a tenant is admitted once, resized any number of
// times, and released once.
const (
	// EventAdmitted: a tenant was committed to the ledger; the event
	// carries its full resource footprint.
	EventAdmitted EventKind = iota + 1
	// EventResized: a live tenant's tiers were grown or shrunk in
	// place; the event carries the new graph and placement (the old
	// footprint is superseded wholesale).
	EventResized
	// EventReleased: the tenant departed and every slot and reservation
	// returned to the ledger.
	EventReleased
	// EventRejected: every shard rejected the request for capacity. No
	// ledger state changed, but dispatch state (policy picks, per-shard
	// rejection counters, placer demand estimators) did — the write-ahead
	// log records it so replay reproduces that state bit-exactly.
	EventRejected
	// EventFailed: the request failed for a non-capacity reason
	// (malformed request, internal placer error) at the shard named by
	// the event, after the shards between First and Shard rejected it.
	// Logged for the same dispatch-state reasons as EventRejected.
	EventFailed
)

// String names the kind for logs and tests.
func (k EventKind) String() string {
	switch k {
	case EventAdmitted:
		return "admitted"
	case EventResized:
		return "resized"
	case EventReleased:
		return "released"
	case EventRejected:
		return "rejected"
	case EventFailed:
		return "failed"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one Grant lifecycle transition together with the tenant's
// resource footprint — what a dataplane needs to install, patch, or
// remove enforcement state incrementally, without reading the ledger.
// The Admitter builds each outcome's event once, where it commits; the
// tally folds it, the sink receives it, and the write-ahead log encodes
// it, so all three see the same record.
type Event struct {
	// Kind is the lifecycle transition.
	Kind EventKind
	// Key uniquely identifies the grant within the emitting scope (one
	// shard): the same Key ties an admission to its later resizes and
	// release.
	Key int64
	// ID is the caller-chosen tenant ID from the request (not
	// necessarily unique; surfaced in stats).
	ID int64
	// Graph is the tenant's TAG when the tenant was priced by it — the
	// precondition for TAG enforcement, matching the Resize rule. Nil
	// for EventReleased, and in ledgers older builds wrote for tenants
	// priced by a translated model (VOC, pipes).
	Graph *tag.Graph
	// Placement is where the tenant's VMs sit after the transition.
	// The map is the reservation's own (fixed — a resize swaps in a
	// fresh one) and must not be modified. Nil for EventReleased.
	Placement Placement

	// Mbps and VMs are the event's change to its shard's reserved
	// bandwidth and occupied slots, as Tally.Fold applies it: the
	// tenant's footprint for an admission, its negation for a release,
	// new minus old for a resize. The log does not record them; replay
	// derives them from the footprint it records.
	Mbps float64
	VMs  int

	// Shard is the shard that committed the transition — or, for
	// EventFailed, the shard where the failure occurred. An Admitter
	// does not know its shard: a dispatcher stamps it on the walk's
	// final event, the durability layer on a grant's later events.
	Shard int
	// First is the dispatch policy's first pick for the request;
	// replaying First alongside Shard reproduces the failover walk
	// (every shard between them rejected). -1 marks one shard's own
	// outcome — every event an Admitter builds, until a dispatcher
	// stamps the walk onto an arrival's — and the events outside the
	// dispatch path: resizes, releases and their rejections/failures,
	// which touch only the grant's own shard.
	First int
	// HA is the tenant's availability requirement from the request.
	HA HASpec
	// Resources is the request's per-tier per-VM demand vectors; nil
	// for slot-only tenants.
	Resources [][]float64
	// Delta is the tenant's full canonical resource footprint after the
	// transition (what a Release must negate). Replay applies it — for
	// a resize, merged with the negated previous footprint — through
	// the same Apply path live commits use, so the recovered ledger is
	// byte-identical.
	Delta topology.Delta
	// Demand is the request graph's per-VM bandwidth demand, recorded
	// so replay can feed placer demand estimators (which observe every
	// arrival, admitted or not) without the full graph — the graph is
	// omitted for tenants priced under a translated model. NaN for an
	// arrival without a graph and for every event that is not an
	// arrival.
	Demand float64
	// Reason is the typed rejection code for EventRejected/EventFailed.
	Reason Reason
}

// EventSink consumes Grant lifecycle events. Publish is called from
// admission paths — potentially from many goroutines at once — so
// implementations must be safe for concurrent use and should return
// quickly. For one grant, Publish calls are ordered (admitted happens
// before any resize, a release is last): the Admitter publishes under
// the grant's lock. Across grants there is no ordering guarantee.
type EventSink interface {
	// Publish delivers one lifecycle event.
	Publish(Event)
}
