package place

import (
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Resizer is implemented by placers that can grow or shrink a committed
// tenant in place (auto-scaling, §6). CloudMirror implements it; model
// translations (O+VOC, SecondNet's pipes) do not, and grants admitted
// through them reject Resize with ReasonUnsupported.
type Resizer interface {
	// Resize adjusts a deployed tenant to newGraph, which must be
	// oldGraph with only tier's size changed. res is consumed; the
	// returned reservation replaces it and reflects either the resized
	// tenant or, on error, the original unchanged.
	Resize(res *Reservation, oldGraph, newGraph *tag.Graph, tier int, ha HASpec) (*Reservation, error)
}

// Compile-time check lives in the cloudmirror package (importing it
// here would cycle).

// resizeStep is one single-tier hop of a resize: the graph after
// changing `tier`, with every earlier step already applied.
type resizeStep struct {
	graph *tag.Graph
	tier  int
}

// resizeSteps validates that newGraph is oldGraph with only tier sizes
// changed and decomposes the transition into single-tier steps (the
// granularity placer Resize implementations work at). Structure changes
// — different tier count, renamed tiers, different edges or guarantees
// — reject with ReasonInvalidRequest: a structural change is a new
// tenant, not a resize.
func resizeSteps(oldG, newG *tag.Graph) ([]resizeStep, error) {
	const op = "resize"
	if newG == nil {
		return nil, Rejectf(op, ReasonInvalidRequest, "nil graph")
	}
	if err := newG.Validate(); err != nil {
		return nil, Reject(op, ReasonInvalidRequest, err)
	}
	if oldG.Tiers() != newG.Tiers() {
		return nil, Rejectf(op, ReasonInvalidRequest,
			"resize changed tier count %d -> %d", oldG.Tiers(), newG.Tiers())
	}
	if len(oldG.Edges()) != len(newG.Edges()) {
		return nil, Rejectf(op, ReasonInvalidRequest, "resize changed edge set")
	}
	for i, e := range oldG.Edges() {
		if newG.Edges()[i] != e {
			return nil, Rejectf(op, ReasonInvalidRequest, "resize changed edge %d guarantees", i)
		}
	}
	var steps []resizeStep
	cur := oldG
	for t := 0; t < oldG.Tiers(); t++ {
		ot, nt := oldG.Tier(t), newG.Tier(t)
		if ot.Name != nt.Name || ot.External != nt.External {
			return nil, Rejectf(op, ReasonInvalidRequest,
				"resize changed tier %d identity (%q -> %q)", t, ot.Name, nt.Name)
		}
		if ot.N == nt.N {
			continue
		}
		next, err := cur.WithTierSize(t, nt.N)
		if err != nil {
			return nil, Reject(op, ReasonInvalidRequest, err)
		}
		steps = append(steps, resizeStep{graph: next, tier: t})
		cur = next
	}
	return steps, nil
}

// liveCopy returns a live copy of a committed, inspection-only
// reservation. Maps are deep-copied: placer Resize implementations
// mutate the reservation they consume, and a failed resize must never
// corrupt the grant's committed state.
func (r *Reservation) liveCopy() *Reservation {
	reserved := make(map[topology.NodeID][2]float64, len(r.reserved))
	for n, v := range r.reserved {
		reserved[n] = v
	}
	return &Reservation{
		tree:      r.tree,
		placement: r.placement.Clone(),
		reserved:  reserved,
		resources: r.resources,
		ownsSlots: true,
	}
}

// runResize replays the per-tier steps on the committed reservation's
// tree, whose ledger must currently carry the tenant's old footprint,
// and returns the resized reservation. The tree is left with the resize
// arithmetic applied; the caller restores its snapshot and commits the
// net delta instead, so the ledger advances exactly as replay will
// advance it.
func runResize(rz Resizer, base *Reservation, oldG *tag.Graph, steps []resizeStep, ha HASpec) (*Reservation, error) {
	cur := base.liveCopy()
	g := oldG
	for _, st := range steps {
		next, err := rz.Resize(cur, g, st.graph, st.tier, ha)
		if err != nil {
			return nil, err
		}
		cur, g = next, st.graph
	}
	return cur, nil
}
