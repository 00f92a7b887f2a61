package topology

import "fmt"

// Multi-resource support (§4.4: "We assume identical VM types and slots;
// extending for heterogeeneous cases is straightforward" — this file is
// that extension). Servers may carry capacity vectors beyond VM slots
// (CPU cores, memory GB); placements consume per-VM demand vectors.
// When a Spec declares no resources, everything below is a no-op and the
// slot-only fast path is unchanged.

// ResourceSpec declares one server resource dimension.
type ResourceSpec struct {
	// Name labels the resource ("cpu", "mem").
	Name string
	// PerServer is each server's capacity in arbitrary units.
	PerServer float64
}

// resourceState tracks free capacity per node subtree, mirroring the
// slot aggregates.
type resourceState struct {
	specs []ResourceSpec
	// free[r][node] is the free capacity of resource r under node.
	free [][]float64
}

// Resources returns the declared resource dimensions. Empty for
// slot-only topologies.
func (t *Tree) Resources() []ResourceSpec {
	if t.res == nil {
		return nil
	}
	return t.res.specs
}

// ResourceFree returns the free capacity of resource r in node n's
// subtree.
func (t *Tree) ResourceFree(n NodeID, r int) float64 {
	return t.res.free[r][n]
}

// initResources builds the resource state after the tree shape exists.
func (t *Tree) initResources(specs []ResourceSpec) {
	if len(specs) == 0 {
		return
	}
	rs := &resourceState{specs: specs, free: make([][]float64, len(specs))}
	for r, spec := range specs {
		if spec.PerServer <= 0 {
			panic(fmt.Sprintf("topology: resource %q has non-positive capacity", spec.Name))
		}
		rs.free[r] = make([]float64, t.NumNodes())
		for n := 0; n < t.NumNodes(); n++ {
			rs.free[r][n] = float64(t.serversUnderCount(NodeID(n))) * spec.PerServer
		}
	}
	t.res = rs
}

func (t *Tree) serversUnderCount(n NodeID) int {
	// Slots are per-server constant, so the server count is derivable.
	return int(t.slotsTotal[n]) / t.spec.SlotsPerServer
}

// ResourceCap returns how many VMs with the given per-VM demand vector
// the subtree rooted at n can host by declared resources alone (slots
// and bandwidth not considered). Unconstrained dimensions return a large
// sentinel.
func (t *Tree) ResourceCap(n NodeID, demand []float64) int {
	const unbounded = 1 << 30
	if t.res == nil || demand == nil {
		return unbounded
	}
	cap := unbounded
	for r, d := range demand {
		if d <= 0 {
			continue
		}
		if k := int(t.res.free[r][n] / d); k < cap {
			cap = k
		}
	}
	return cap
}

// CanHost reports whether server n currently has k slots and k units of
// each demand (a per-VM resource vector, which may be nil for slot-only
// requests).
func (t *Tree) CanHost(n NodeID, k int, demand []float64) bool {
	if int(t.slotsFree[n]) < k {
		return false
	}
	if t.res == nil || demand == nil {
		return true
	}
	for r := range demand {
		if t.res.free[r][n] < float64(k)*demand[r]-1e-9 {
			return false
		}
	}
	return true
}

// UseResources consumes k× the per-VM demand vector on server n,
// updating subtree aggregates. Callers must pair it with UseSlots; it
// fails (changing nothing) when capacity is insufficient.
func (t *Tree) UseResources(n NodeID, k int, demand []float64) error {
	if t.res == nil || demand == nil {
		return nil
	}
	if len(demand) != len(t.res.specs) {
		return fmt.Errorf("topology: demand vector has %d entries, topology has %d resources",
			len(demand), len(t.res.specs))
	}
	for r := range demand {
		if t.res.free[r][n] < float64(k)*demand[r]-1e-9 {
			return fmt.Errorf("topology: server %d lacks %s: need %g, have %g",
				n, t.res.specs[r].Name, float64(k)*demand[r], t.res.free[r][n])
		}
	}
	for r, d := range demand {
		take := float64(k) * d
		for m := n; m != NoNode; m = t.parent[m] {
			t.res.free[r][m] -= take
		}
	}
	return nil
}

// ReleaseResources returns k× the demand vector to server n.
func (t *Tree) ReleaseResources(n NodeID, k int, demand []float64) {
	if t.res == nil || demand == nil {
		return
	}
	for r, d := range demand {
		give := float64(k) * d
		for m := n; m != NoNode; m = t.parent[m] {
			t.res.free[r][m] += give
		}
	}
}
