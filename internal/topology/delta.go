package topology

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// The delta layer turns the tree's reservation ledger into a
// transactional core: a placement's net resource footprint is exported
// as a Delta, checked against current headroom with Validate, applied
// or undone in O(touched nodes) with Apply and Revert, and replayed
// onto replica trees through a DeltaLog. This is what lets the
// optimistic admission path (package place) plan placements on private
// replicas and funnel only short validate-and-commit sections through
// the authoritative tree's lock.
//
// Bit-exactness contract: a tree whose state only ever advances by
// Apply-ing a sequence of deltas is a pure function of that sequence.
// Two trees built from the same Spec that apply the same deltas in the
// same order are byte-identical — float accumulators included — which
// is how replicas are guaranteed never to drift from the authoritative
// ledger.

// SlotDelta is one server's slot consumption within a Delta. Positive N
// consumes free slots (placement); negative returns them (departure).
type SlotDelta struct {
	// Server is the leaf server whose slots change.
	Server NodeID
	// N is the signed slot count.
	N int
}

// LinkDelta is one node's uplink reservation change within a Delta, per
// direction. Positive reserves bandwidth; negative releases it.
type LinkDelta struct {
	// Node is the node whose uplink reservation changes.
	Node NodeID
	// Out and In are the signed toward-root / from-root amounts in Mbps.
	Out, In float64
}

// ResourceDelta is one server's declared-resource consumption within a
// Delta: the total demand across the tenant's VMs on that server, one
// entry per declared dimension. Signs follow SlotDelta.
type ResourceDelta struct {
	// Server is the leaf server whose resources change.
	Server NodeID
	// Demand is the signed total consumption per declared dimension.
	Demand []float64
}

// Delta is the net resource footprint of one committed placement (or,
// negated, one departure): per-server slot and resource consumption and
// per-node uplink reservations. Entries are sorted by node ID with at
// most one entry per node, so equal footprints have equal
// representations and application order is deterministic.
type Delta struct {
	// Slots lists per-server slot changes, sorted by server ID.
	Slots []SlotDelta
	// Links lists per-node uplink changes, sorted by node ID.
	Links []LinkDelta
	// Resources lists per-server declared-resource changes, sorted by
	// server ID. Empty on slot-only topologies.
	Resources []ResourceDelta
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Slots) == 0 && len(d.Links) == 0 && len(d.Resources) == 0
}

// Negate returns the inverse delta: applying d then d.Negate() returns
// every integer accumulator exactly and every float accumulator up to
// rounding (use Apply's Undo for a byte-exact revert).
func (d Delta) Negate() Delta {
	n := Delta{
		Slots:     make([]SlotDelta, len(d.Slots)),
		Links:     make([]LinkDelta, len(d.Links)),
		Resources: make([]ResourceDelta, len(d.Resources)),
	}
	for i, s := range d.Slots {
		n.Slots[i] = SlotDelta{s.Server, -s.N}
	}
	for i, l := range d.Links {
		n.Links[i] = LinkDelta{l.Node, -l.Out, -l.In}
	}
	for i, r := range d.Resources {
		dem := make([]float64, len(r.Demand))
		for j, v := range r.Demand {
			dem[j] = -v
		}
		n.Resources[i] = ResourceDelta{r.Server, dem}
	}
	return n
}

// Normalize sorts the delta's entries by node ID in place and returns
// it. Builders that emit entries from map iteration call it to reach
// the canonical form.
func (d Delta) Normalize() Delta {
	sort.Slice(d.Slots, func(i, j int) bool { return d.Slots[i].Server < d.Slots[j].Server })
	sort.Slice(d.Links, func(i, j int) bool { return d.Links[i].Node < d.Links[j].Node })
	sort.Slice(d.Resources, func(i, j int) bool { return d.Resources[i].Server < d.Resources[j].Server })
	return d
}

// Merge combines deltas into one canonical delta: per-node entries are
// summed and entries whose contributions cancel exactly drop out. A
// resize commits Merge(oldFootprint.Negate(), newFootprint) — the net
// ledger change of the tenant's transition — as a single atomic delta,
// so validation and replication see one entry per resize, exactly like
// an admission. Both admission paths merge the same way, which keeps
// the locked and planners=1 optimistic ledgers byte-identical.
func Merge(ds ...Delta) Delta {
	slots := make(map[NodeID]int)
	links := make(map[NodeID][2]float64)
	var resources map[NodeID][]float64
	for _, d := range ds {
		for _, s := range d.Slots {
			slots[s.Server] += s.N
		}
		for _, l := range d.Links {
			v := links[l.Node]
			links[l.Node] = [2]float64{v[0] + l.Out, v[1] + l.In}
		}
		for _, r := range d.Resources {
			if resources == nil {
				resources = make(map[NodeID][]float64)
			}
			dem := resources[r.Server]
			if dem == nil {
				dem = make([]float64, len(r.Demand))
				resources[r.Server] = dem
			}
			for dim, v := range r.Demand {
				dem[dim] += v
			}
		}
	}
	var m Delta
	//cloudlint:ordered entries are appended per distinct node and the merged delta is sorted by Normalize() on return
	for n, k := range slots {
		if k != 0 {
			m.Slots = append(m.Slots, SlotDelta{Server: n, N: k})
		}
	}
	//cloudlint:ordered entries are appended per distinct node and the merged delta is sorted by Normalize() on return
	for n, v := range links {
		if v[0] != 0 || v[1] != 0 {
			m.Links = append(m.Links, LinkDelta{Node: n, Out: v[0], In: v[1]})
		}
	}
	//cloudlint:ordered entries are appended per distinct node and the merged delta is sorted by Normalize() on return
	for n, dem := range resources {
		zero := true
		for _, v := range dem {
			if v != 0 {
				zero = false
				break
			}
		}
		if !zero {
			m.Resources = append(m.Resources, ResourceDelta{Server: n, Demand: dem})
		}
	}
	return m.Normalize()
}

// Validate checks the delta against the tree's current headroom without
// changing anything: every positive slot entry must fit the server's
// free slots, every positive resource entry the server's free capacity,
// and every link entry the uplink's capacity (with the same epsilon
// Reserve uses). Negative slot entries are checked against over-release.
// Per-server checks imply the ancestor aggregates, because subtree
// aggregates are exact sums of their children.
func (t *Tree) Validate(d Delta) error {
	for _, s := range d.Slots {
		if !t.IsServer(s.Server) {
			return fmt.Errorf("topology: slot delta on non-server node %d", s.Server)
		}
		if s.N > 0 && int(t.slotsFree[s.Server]) < s.N {
			return fmt.Errorf("%w: server %d has %d free, need %d",
				ErrNoSlots, s.Server, t.slotsFree[s.Server], s.N)
		}
		if s.N < 0 && t.slotsFree[s.Server]-int32(s.N) > t.slotsTotal[s.Server] {
			return fmt.Errorf("topology: slot delta over-releases %d slots on server %d", -s.N, s.Server)
		}
	}
	for _, l := range d.Links {
		if l.Node == t.root {
			if l.Out != 0 || l.In != 0 {
				return fmt.Errorf("%w: root has no uplink", ErrNoBandwidth)
			}
			continue
		}
		if t.upResOut[l.Node]+l.Out > t.upCap[l.Node]+capEpsilon ||
			t.upResIn[l.Node]+l.In > t.upCap[l.Node]+capEpsilon {
			return t.bandwidthError(l.Node, l.Out, l.In)
		}
	}
	for _, r := range d.Resources {
		if t.res == nil {
			return fmt.Errorf("topology: resource delta on slot-only topology")
		}
		if len(r.Demand) != len(t.res.specs) {
			return fmt.Errorf("topology: resource delta has %d dimensions, topology has %d",
				len(r.Demand), len(t.res.specs))
		}
		for dim, v := range r.Demand {
			if v > 0 && t.res.free[dim][r.Server] < v-1e-9 {
				return fmt.Errorf("topology: server %d lacks %s: need %g, have %g",
					r.Server, t.res.specs[dim].Name, v, t.res.free[dim][r.Server])
			}
		}
	}
	return nil
}

// undoEntry records one accumulator's value before an Apply touched it.
type undoEntry struct {
	kind int // 0 slots, 1 out, 2 in, 3 resource
	dim  int // resource dimension for kind 3
	node NodeID
	f    float64
	i    int32
}

// Undo captures the exact prior bits of every accumulator an Apply
// touched, so Revert restores the ledger byte-identically. An Undo is
// only valid until the next mutation of the tree.
type Undo struct {
	entries []undoEntry
}

// Apply applies the delta to the ledger unconditionally, updating
// subtree aggregates along each touched server's path to the root, and
// returns an Undo that restores the prior state exactly. The arithmetic
// mirrors the incremental path (UseSlots/Reserve/Release): bandwidth
// accumulators clamp at zero when a negative delta over-releases, and
// slot over-release panics as ReleaseSlots would. Callers commit a
// positive delta only after Validate on the same locked tree.
//
// The returned Undo aliases a per-tree scratch buffer: it is only valid
// until the next mutation of the tree (the documented Undo contract),
// and reusing the buffer keeps the commit hot path allocation-free.
func (t *Tree) Apply(d Delta) *Undo {
	u := &t.undoScratch
	if u.entries == nil {
		u.entries = make([]undoEntry, 0, 4*len(d.Slots)+len(d.Links))
	} else {
		u.entries = u.entries[:0]
	}
	for _, s := range d.Slots {
		if !t.IsServer(s.Server) {
			panic(fmt.Sprintf("topology: slot delta on non-server node %d", s.Server))
		}
		if s.N < 0 && t.slotsFree[s.Server]-int32(s.N) > t.slotsTotal[s.Server] {
			panic(fmt.Sprintf("topology: delta over-releases %d slots on server %d", -s.N, s.Server))
		}
		for m := s.Server; m != NoNode; m = t.parent[m] {
			u.entries = append(u.entries, undoEntry{kind: 0, node: m, i: t.slotsFree[m]})
			t.slotsFree[m] -= int32(s.N)
			if t.idx != nil && s.N < 0 {
				t.idxRaiseSlots(m)
			}
		}
	}
	for _, l := range d.Links {
		if l.Node == t.root {
			continue
		}
		u.entries = append(u.entries,
			undoEntry{kind: 1, node: l.Node, f: t.upResOut[l.Node]},
			undoEntry{kind: 2, node: l.Node, f: t.upResIn[l.Node]})
		t.upResOut[l.Node] += l.Out
		if t.upResOut[l.Node] < 0 {
			t.upResOut[l.Node] = 0
		}
		t.upResIn[l.Node] += l.In
		if t.upResIn[l.Node] < 0 {
			t.upResIn[l.Node] = 0
		}
		if t.idx != nil {
			t.idxRaiseLink(l.Node)
		}
	}
	for _, r := range d.Resources {
		for dim, v := range r.Demand {
			if v == 0 {
				continue
			}
			for m := r.Server; m != NoNode; m = t.parent[m] {
				u.entries = append(u.entries, undoEntry{kind: 3, dim: dim, node: m, f: t.res.free[dim][m]})
				t.res.free[dim][m] -= v
				if t.idx != nil && v < 0 {
					t.idxRaiseRes(m, dim)
				}
			}
		}
	}
	if t.idx != nil {
		t.idx.stale++
	}
	return u
}

// Revert restores the ledger to the exact state before the Apply that
// produced the undo record — byte-identical, float accumulators
// included. It must run before any other mutation of the tree.
func (t *Tree) Revert(u *Undo) {
	for i := len(u.entries) - 1; i >= 0; i-- {
		e := u.entries[i]
		switch e.kind {
		case 0:
			t.slotsFree[e.node] = e.i
		case 1:
			t.upResOut[e.node] = e.f
		case 2:
			t.upResIn[e.node] = e.f
		case 3:
			t.res.free[e.dim][e.node] = e.f
		}
		if t.idx != nil {
			switch e.kind {
			case 0:
				t.idxRaiseSlots(e.node)
			case 1, 2:
				t.idxRaiseLink(e.node)
			case 3:
				t.idxRaiseRes(e.node, e.dim)
			}
		}
	}
	u.entries = u.entries[:0]
}

// DeltaLog is the append-only sequence of deltas committed on an
// authoritative tree, the channel through which replicas learn of
// commits. Sequence numbers count all deltas ever appended; the log
// retains a trimmable suffix. Append, Replay, Seq and TrimTo are safe
// for concurrent use.
type DeltaLog struct {
	mu   sync.RWMutex
	base uint64
	log  []Delta
	// seq mirrors base+len(log) behind an atomic: Seq is the log's
	// epoch counter, and keeping it lock-free lets replicas poll it on
	// every plan and skip the read-locked Replay when already current.
	seq atomic.Uint64
}

// NewDeltaLog returns an empty log at sequence zero.
func NewDeltaLog() *DeltaLog { return &DeltaLog{} }

// Seq returns the number of deltas appended so far; the next Append
// receives this sequence number. It is a single atomic load — an epoch
// check, safe to spin on.
func (l *DeltaLog) Seq() uint64 { return l.seq.Load() }

// Append adds a committed delta and returns the new sequence count.
func (l *DeltaLog) Append(d Delta) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, d)
	s := l.base + uint64(len(l.log))
	l.seq.Store(s)
	return s
}

// Replay calls fn, in commit order, for every delta from sequence
// `from` through the current end of the log, and returns the sequence
// reached. It panics if entries below `from` were already trimmed away
// together with entries at or above it — replicas must catch up before
// the log is trimmed past them.
func (l *DeltaLog) Replay(from uint64, fn func(Delta)) uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < l.base {
		panic(fmt.Sprintf("topology: replay from %d but log trimmed to %d", from, l.base))
	}
	for _, d := range l.log[from-l.base:] {
		fn(d)
	}
	return l.base + uint64(len(l.log))
}

// TrimTo drops log entries below the given sequence, bounding memory.
// Callers pass the minimum sequence any replica has reached.
func (l *DeltaLog) TrimTo(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.base {
		return
	}
	end := l.base + uint64(len(l.log))
	if seq > end {
		seq = end
	}
	n := seq - l.base
	rem := copy(l.log, l.log[n:])
	// Zero the tail so the trimmed deltas' entry slices can be
	// collected, then keep the capacity: the log's steady-state length
	// is bounded by the laziest replica, so reusing the array makes
	// Append allocation-free once the high-water mark is reached.
	clear(l.log[rem:])
	l.log = l.log[:rem]
	l.base = seq
}
