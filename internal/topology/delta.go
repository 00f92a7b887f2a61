package topology

import (
	"fmt"
	"sort"
)

// The delta layer turns a placement's net resource footprint into a
// value: a Delta is exported from a committed reservation, applied to
// the ledger in O(touched nodes) with Apply, negated for a departure,
// and logged by the durability layer so recovery can re-apply it.
//
// Bit-exactness contract: a tree whose state only ever advances by
// Apply-ing a sequence of deltas is a pure function of that sequence.
// Two trees built from the same Spec that apply the same deltas in the
// same order are byte-identical — float accumulators included — which
// is how write-ahead-log replay reproduces the live ledger.

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

// Negate returns the inverse delta: applying d then d.Negate() returns
// every integer accumulator exactly and every float accumulator up to
// rounding (a byte-exact rollback restores a Snapshot instead).
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

// Merge sums deltas into one canonical delta: per-node entries are
// summed and entries whose contributions cancel exactly drop out. A
// resize commits Merge(oldFootprint.Negate(), newFootprint) — the net
// ledger change of the tenant's transition — as a single atomic delta,
// and replay re-merges the logged footprints the same way, so the
// recovered ledger sees the same one application per resize.
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

// Apply applies the delta to the ledger unconditionally, updating
// subtree aggregates along each touched server's path to the root. The
// arithmetic mirrors the incremental path (UseSlots/Reserve/Release):
// bandwidth accumulators clamp at zero when a negative delta
// over-releases, and slot over-release panics as ReleaseSlots would.
// Callers commit a positive delta only when it is the footprint of a
// placement that just succeeded against the same ledger state.
func (t *Tree) Apply(d Delta) {
	for _, s := range d.Slots {
		if !t.IsServer(s.Server) {
			panic(fmt.Sprintf("topology: slot delta on non-server node %d", s.Server))
		}
		if s.N < 0 && t.slotsFree[s.Server]-int32(s.N) > t.slotsTotal[s.Server] {
			panic(fmt.Sprintf("topology: delta over-releases %d slots on server %d", -s.N, s.Server))
		}
		for m := s.Server; m != NoNode; m = t.parent[m] {
			t.slotsFree[m] -= int32(s.N)
		}
	}
	for _, l := range d.Links {
		if l.Node == t.root {
			continue
		}
		t.upResOut[l.Node] += l.Out
		if t.upResOut[l.Node] < 0 {
			t.upResOut[l.Node] = 0
		}
		t.upResIn[l.Node] += l.In
		if t.upResIn[l.Node] < 0 {
			t.upResIn[l.Node] = 0
		}
	}
	for _, r := range d.Resources {
		for dim, v := range r.Demand {
			if v == 0 {
				continue
			}
			for m := r.Server; m != NoNode; m = t.parent[m] {
				t.res.free[dim][m] -= v
			}
		}
	}
}
