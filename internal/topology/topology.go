// Package topology models a tree-shaped datacenter network: servers with
// VM slots at the leaves, switches above them, and directed uplink
// capacities with a bandwidth-reservation ledger.
//
// This is the physical substrate the CloudMirror paper places tenants on
// (§4, §5): a single-rooted multi-level tree where each node's uplink has
// independent capacity in the outgoing (toward the root) and incoming
// (from the root) directions. Placement algorithms reserve slot and
// bandwidth resources here and release them when tenants depart.
package topology

import (
	"errors"
	"fmt"
)

// NodeID identifies a node in a Tree. IDs are dense, starting at 0 for
// the root.
type NodeID int32

// NoNode is the parent of the root and the result of failed lookups.
const NoNode NodeID = -1

// capEpsilon absorbs float rounding when comparing reservations against
// capacities (Mbps scale, so 1e-6 Mbps = 1 bit/s).
const capEpsilon = 1e-6

// Errors reported by reservation operations.
var (
	ErrNoSlots     = errors.New("topology: not enough free VM slots")
	ErrNoBandwidth = errors.New("topology: not enough uplink bandwidth")
)

// BandwidthError is the refusal Reserve and Validate return when an
// uplink cannot carry a reservation: which link, at which level, and in
// each direction what was already reserved and what was asked on top of
// it. It unwraps to ErrNoBandwidth, so errors.Is keeps classifying it.
//
// The placement search provokes thousands of these per admission and
// reads none of them, so a refusal only records the numbers; the message
// is rendered when (and if) somebody calls Error.
type BandwidthError struct {
	// Node is the node whose uplink refused; Level is its level name.
	Node  NodeID
	Level string
	// Cap is the uplink's per-direction capacity in Mbps.
	Cap float64
	// ResOut and ResIn are the reservations held when the request
	// arrived; Out and In are what the request asked to add.
	ResOut, Out float64
	ResIn, In   float64
}

// Error renders the refusal: the sentinel's text, then the link and the
// per-direction "held+asked" against its capacity.
func (e *BandwidthError) Error() string {
	return fmt.Sprintf("%v: node %d (%s) cap %g, out %g+%g, in %g+%g", ErrNoBandwidth,
		e.Node, e.Level, e.Cap, e.ResOut, e.Out, e.ResIn, e.In)
}

// Unwrap returns ErrNoBandwidth.
func (e *BandwidthError) Unwrap() error { return ErrNoBandwidth }

// bandwidthError records a refusal of (out, in) more on n's uplink.
func (t *Tree) bandwidthError(n NodeID, out, in float64) *BandwidthError {
	return &BandwidthError{
		Node: n, Level: t.LevelName(t.Level(n)), Cap: t.upCap[n],
		ResOut: t.upResOut[n], Out: out, ResIn: t.upResIn[n], In: in,
	}
}

// LevelSpec describes one level of the tree, bottom-up.
type LevelSpec struct {
	// Name labels the level ("server", "tor", "agg").
	Name string
	// Fanout is the number of nodes of this level under each node of the
	// level above.
	Fanout int
	// Uplink is the capacity, in Mbps and per direction, of the link
	// connecting each node of this level to its parent.
	Uplink float64
}

// Spec describes a complete tree. Levels[0] are the servers.
type Spec struct {
	// SlotsPerServer is the number of identical VM slots per server.
	SlotsPerServer int
	// Levels lists the levels bottom-up; the root sits above the last
	// entry and has no uplink.
	Levels []LevelSpec
	// Resources optionally declares additional per-server capacity
	// dimensions (CPU, memory) consumed alongside slots; empty means
	// slot-only scheduling.
	Resources []ResourceSpec
}

// Validate checks that the spec describes a buildable tree.
func (s Spec) Validate() error {
	if s.SlotsPerServer <= 0 {
		return fmt.Errorf("topology: SlotsPerServer = %d, want > 0", s.SlotsPerServer)
	}
	if len(s.Levels) == 0 {
		return errors.New("topology: no levels")
	}
	for i, l := range s.Levels {
		if l.Fanout <= 0 {
			return fmt.Errorf("topology: level %d fanout = %d, want > 0", i, l.Fanout)
		}
		if l.Uplink < 0 {
			return fmt.Errorf("topology: level %d uplink = %g, want >= 0", i, l.Uplink)
		}
	}
	return nil
}

// Servers returns the number of servers the spec describes.
func (s Spec) Servers() int {
	n := 1
	for _, l := range s.Levels {
		n *= l.Fanout
	}
	return n
}

// Tree is a datacenter tree with slot and bandwidth accounting. It is not
// safe for concurrent use; the simulation engine is single-threaded per
// datacenter, as placement decisions must serialize anyway.
type Tree struct {
	spec Spec

	parent   []NodeID
	children [][]NodeID
	level    []int8 // 0 = server; root has level len(Levels)
	// last[n] is the highest ID in n's subtree. IDs are assigned in
	// preorder, so the subtree of n is exactly the ID range [n, last[n]].
	last []NodeID

	upCap    []float64 // uplink capacity per direction (symmetric capacity)
	upResOut []float64 // reserved toward the root
	upResIn  []float64 // reserved from the root

	slotsFree  []int32 // free slots in the whole subtree
	slotsTotal []int32

	servers      []NodeID
	nodesByLevel [][]NodeID
	root         NodeID
	res          *resourceState
}

// New builds the tree described by spec. It panics if the spec is
// invalid; use Spec.Validate to check untrusted input first.
func New(spec Spec) *Tree {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	levels := len(spec.Levels)
	total := 1
	width := 1
	for i := levels - 1; i >= 0; i-- {
		width *= spec.Levels[i].Fanout
		total += width
	}

	t := &Tree{
		spec:         spec,
		parent:       make([]NodeID, total),
		children:     make([][]NodeID, total),
		level:        make([]int8, total),
		last:         make([]NodeID, total),
		upCap:        make([]float64, total),
		upResOut:     make([]float64, total),
		upResIn:      make([]float64, total),
		slotsFree:    make([]int32, total),
		slotsTotal:   make([]int32, total),
		nodesByLevel: make([][]NodeID, levels+1),
	}

	next := NodeID(0)
	var build func(parent NodeID, lvl int) NodeID
	build = func(parent NodeID, lvl int) NodeID {
		id := next
		next++
		t.parent[id] = parent
		t.level[id] = int8(lvl)
		t.nodesByLevel[lvl] = append(t.nodesByLevel[lvl], id)
		if lvl < levels {
			t.upCap[id] = spec.Levels[lvl].Uplink
		}
		if lvl == 0 {
			t.servers = append(t.servers, id)
			t.slotsTotal[id] = int32(spec.SlotsPerServer)
			t.slotsFree[id] = t.slotsTotal[id]
			t.last[id] = id
			return id
		}
		fan := spec.Levels[lvl-1].Fanout
		t.children[id] = make([]NodeID, 0, fan)
		for i := 0; i < fan; i++ {
			c := build(id, lvl-1)
			t.children[id] = append(t.children[id], c)
			t.slotsTotal[id] += t.slotsTotal[c]
			t.slotsFree[id] += t.slotsFree[c]
		}
		t.last[id] = next - 1
		return id
	}
	t.root = build(NoNode, levels)
	t.initResources(spec.Resources)
	return t
}

// Spec returns the spec the tree was built from.
func (t *Tree) Spec() Spec { return t.spec }

// Root returns the root node.
func (t *Tree) Root() NodeID { return t.root }

// NumNodes returns the total number of nodes.
func (t *Tree) NumNodes() int { return len(t.parent) }

// Parent returns n's parent, or NoNode for the root.
func (t *Tree) Parent(n NodeID) NodeID { return t.parent[n] }

// Children returns n's children; empty for servers. The slice must not be
// modified.
func (t *Tree) Children(n NodeID) []NodeID { return t.children[n] }

// Level returns n's level: 0 for servers, increasing toward the root.
func (t *Tree) Level(n NodeID) int { return int(t.level[n]) }

// Height returns the root's level.
func (t *Tree) Height() int { return len(t.spec.Levels) }

// IsServer reports whether n is a leaf server.
func (t *Tree) IsServer(n NodeID) bool { return t.level[n] == 0 }

// Servers returns all servers in left-to-right order. The slice must not
// be modified.
func (t *Tree) Servers() []NodeID { return t.servers }

// NodesAtLevel returns all nodes at the given level, left to right. The
// slice must not be modified.
func (t *Tree) NodesAtLevel(l int) []NodeID { return t.nodesByLevel[l] }

// LevelName returns the configured name of a level ("root" for the top).
func (t *Tree) LevelName(l int) string {
	if l >= len(t.spec.Levels) {
		return "root"
	}
	return t.spec.Levels[l].Name
}

// SlotsFree returns the number of free VM slots in the subtree rooted at n.
func (t *Tree) SlotsFree(n NodeID) int { return int(t.slotsFree[n]) }

// SlotsTotal returns the total VM slots in the subtree rooted at n.
func (t *Tree) SlotsTotal(n NodeID) int { return int(t.slotsTotal[n]) }

// UseSlots consumes k free slots on server n, updating subtree aggregates
// up to the root. It fails with ErrNoSlots (and changes nothing) if the
// server does not have k free slots.
func (t *Tree) UseSlots(n NodeID, k int) error {
	if !t.IsServer(n) {
		return fmt.Errorf("topology: UseSlots on non-server node %d", n)
	}
	if k < 0 || int(t.slotsFree[n]) < k {
		return fmt.Errorf("%w: server %d has %d free, need %d", ErrNoSlots, n, t.slotsFree[n], k)
	}
	for m := n; m != NoNode; m = t.parent[m] {
		t.slotsFree[m] -= int32(k)
	}
	return nil
}

// ReleaseSlots returns k slots to server n. It panics if the release
// would exceed the server's capacity, which indicates double release.
func (t *Tree) ReleaseSlots(n NodeID, k int) {
	if !t.IsServer(n) {
		panic(fmt.Sprintf("topology: ReleaseSlots on non-server node %d", n))
	}
	if k < 0 || t.slotsFree[n]+int32(k) > t.slotsTotal[n] {
		panic(fmt.Sprintf("topology: over-release of %d slots on server %d", k, n))
	}
	for m := n; m != NoNode; m = t.parent[m] {
		t.slotsFree[m] += int32(k)
	}
}

// UplinkCap returns the per-direction capacity of n's uplink (0 for the
// root, which has none).
func (t *Tree) UplinkCap(n NodeID) float64 { return t.upCap[n] }

// UplinkReserved returns the bandwidth currently reserved on n's uplink
// in the (toward-root, from-root) directions.
func (t *Tree) UplinkReserved(n NodeID) (out, in float64) {
	return t.upResOut[n], t.upResIn[n]
}

// UplinkAvail returns the unreserved uplink bandwidth of n per direction.
func (t *Tree) UplinkAvail(n NodeID) (out, in float64) {
	return t.upCap[n] - t.upResOut[n], t.upCap[n] - t.upResIn[n]
}

// Reserve reserves out/in Mbps on n's uplink. The reservation is atomic:
// if either direction lacks capacity, nothing changes and a
// *BandwidthError (which is ErrNoBandwidth to errors.Is) is returned. Negative arguments release bandwidth (callers normally use
// Release for clarity).
func (t *Tree) Reserve(n NodeID, out, in float64) error {
	if n == t.root {
		if out != 0 || in != 0 {
			return fmt.Errorf("%w: root has no uplink", ErrNoBandwidth)
		}
		return nil
	}
	if t.upResOut[n]+out > t.upCap[n]+capEpsilon || t.upResIn[n]+in > t.upCap[n]+capEpsilon {
		return t.bandwidthError(n, out, in)
	}
	t.upResOut[n] += out
	t.upResIn[n] += in
	if t.upResOut[n] < 0 {
		t.upResOut[n] = 0
	}
	if t.upResIn[n] < 0 {
		t.upResIn[n] = 0
	}
	return nil
}

// Release returns previously reserved bandwidth on n's uplink. Releasing
// more than is reserved clamps at zero (rounding-safe) rather than
// panicking, since reservations are floats.
func (t *Tree) Release(n NodeID, out, in float64) {
	if n == t.root {
		return
	}
	t.upResOut[n] -= out
	if t.upResOut[n] < 0 {
		t.upResOut[n] = 0
	}
	t.upResIn[n] -= in
	if t.upResIn[n] < 0 {
		t.upResIn[n] = 0
	}
}

// LevelReserved returns the total bandwidth reserved on the uplinks of
// all nodes at level l, summed over both directions. This is the
// "bandwidth reserved at network level" metric of Table 1.
func (t *Tree) LevelReserved(l int) float64 {
	var sum float64
	for _, n := range t.nodesByLevel[l] {
		sum += t.upResOut[n] + t.upResIn[n]
	}
	return sum
}

// PathToRoot calls fn for every node from n up to and including the root.
func (t *Tree) PathToRoot(n NodeID, fn func(NodeID)) {
	for m := n; m != NoNode; m = t.parent[m] {
		fn(m)
	}
}

// Ancestor returns n's ancestor at the given level (n itself if already
// at that level).
func (t *Tree) Ancestor(n NodeID, level int) NodeID {
	m := n
	for int(t.level[m]) < level {
		m = t.parent[m]
	}
	return m
}

// Contains reports whether sub lies in the subtree rooted at n (a node
// contains itself; NoNode contains nothing and lies in no subtree).
//
// It is two comparisons, not a parent walk: New numbers the nodes in
// preorder, so n's descendants are the nodes created between n and the
// end of n's build call, and they received exactly the consecutive IDs
// n+1 … last[n]. Hence sub is in n's subtree iff n ≤ sub ≤ last[n].
func (t *Tree) Contains(n, sub NodeID) bool {
	return n != NoNode && n <= sub && sub <= t.last[n]
}

// ServersUnder calls fn for every server in the subtree rooted at n,
// stopping early if fn returns false.
func (t *Tree) ServersUnder(n NodeID, fn func(NodeID) bool) {
	if t.IsServer(n) {
		fn(n)
		return
	}
	var walk func(NodeID) bool
	walk = func(m NodeID) bool {
		if t.IsServer(m) {
			return fn(m)
		}
		for _, c := range t.children[m] {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(n)
}

// String summarizes the tree shape and utilization.
func (t *Tree) String() string {
	return fmt.Sprintf("Tree{%d levels, %d servers × %d slots, %d/%d slots free}",
		t.Height(), len(t.servers), t.spec.SlotsPerServer,
		t.slotsFree[t.root], t.slotsTotal[t.root])
}
