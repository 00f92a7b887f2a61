package cloudmirror

import (
	"cmp"
	"fmt"
	"slices"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// This file implements incremental auto-scaling (§6 of the paper: "We
// plan to extend our placement algorithm to better support
// auto-scaling"). Because TAG guarantees are per-VM, a tier re-size
// changes no guarantee values — only the VM count — so the placer can
// grow or shrink a deployed tenant in place instead of re-deploying it.

// Compile-time check: CloudMirror is the placer that supports in-place
// auto-scaling through the admission paths.
var _ place.Resizer = (*Placer)(nil)

// Resize adjusts a deployed tenant to a new size for one tier. res is
// consumed (whether Resize succeeds or not); the returned reservation
// replaces it and reflects either the resized tenant or, on error, the
// original unchanged.
//
// newGraph must be the tenant's TAG with the tier's new size (same
// tiers, same edges, same guarantees — per-VM values don't change when
// auto-scaling, §3). ha is the tenant's availability requirement, still
// honored for the added VMs. Growth places the additional VMs with the
// regular Alloc machinery under the lowest subtree covering the tenant;
// shrink removes VMs tier-consolidating (smallest holdings first) so the
// remaining VMs stay packed.
func (p *Placer) Resize(res *place.Reservation, oldGraph, newGraph *tag.Graph, tier int, ha place.HASpec) (*place.Reservation, error) {
	if err := compatible(oldGraph, newGraph, tier); err != nil {
		return res, err
	}
	oldSize := oldGraph.TierSize(tier)
	newSize := newGraph.TierSize(tier)

	tx := res.Reopen(newGraph)
	switch {
	case newSize == oldSize:
		return tx.Commit(), nil
	case newSize < oldSize:
		return p.shrink(tx, res.Placement(), oldGraph, tier, oldSize-newSize)
	default:
		return p.grow(tx, oldGraph, newGraph, tier, newSize-oldSize, ha)
	}
}

// compatible validates that newGraph is oldGraph with only tier's size
// changed.
func compatible(oldG, newG *tag.Graph, tier int) error {
	if oldG.Tiers() != newG.Tiers() || len(oldG.Edges()) != len(newG.Edges()) {
		return place.Rejectf("resize", place.ReasonInvalidRequest, "cloudmirror: resize changed graph structure")
	}
	for t := 0; t < oldG.Tiers(); t++ {
		if t == tier {
			continue
		}
		if oldG.Tier(t) != newG.Tier(t) {
			return place.Rejectf("resize", place.ReasonInvalidRequest, "cloudmirror: resize changed tier %d, expected only tier %d", t, tier)
		}
	}
	for i, e := range oldG.Edges() {
		if newG.Edges()[i] != e {
			return place.Rejectf("resize", place.ReasonInvalidRequest, "cloudmirror: resize changed edge %d guarantees", i)
		}
	}
	if newG.TierSize(tier) < 0 {
		return place.Rejectf("resize", place.ReasonInvalidRequest, "cloudmirror: negative tier size")
	}
	return nil
}

// shrink removes d VMs of the tier, emptying the servers with the
// smallest holdings first so the tier stays consolidated, then
// reconciles all reservations under the new (smaller) model. pl is the
// placement tx was reopened from.
func (p *Placer) shrink(tx *place.Txn, pl place.Placement, oldG *tag.Graph, tier, d int) (*place.Reservation, error) {
	type holding struct {
		server topology.NodeID
		count  int
	}
	var holdings []holding
	//cloudlint:ordered holdings are sorted by (count, server) below, a total order
	for server := range pl {
		if k := tx.CountOf(server, tier); k > 0 {
			holdings = append(holdings, holding{server, k})
		}
	}
	slices.SortFunc(holdings, func(a, b holding) int {
		return cmp.Or(cmp.Compare(a.count, b.count), cmp.Compare(a.server, b.server))
	})
	remaining := d
	var removed []action
	for _, h := range holdings {
		if remaining == 0 {
			break
		}
		k := min(h.count, remaining)
		tx.Unplace(h.server, tier, k)
		removed = append(removed, action{h.server, tier, k})
		remaining -= k
	}
	if remaining > 0 {
		panic(fmt.Sprintf("cloudmirror: shrink of %d VMs found only %d placed", d, d-remaining))
	}
	if err := tx.SyncAll(); err != nil {
		// A shrink re-sync can only fail if some cut grew under the new
		// model; re-place the removed VMs and restore the original.
		for _, a := range removed {
			if perr := tx.Place(a.server, a.tier, a.k); perr != nil {
				panic(fmt.Sprintf("cloudmirror: shrink restore failed: %v", perr))
			}
		}
		return p.restore(tx, oldG), err
	}
	return tx.Commit(), nil
}

// grow places d more VMs of the tier with the regular Alloc machinery,
// trying the lowest subtree that covers the tenant's current footprint
// and climbing on failure. On failure the addition is rolled back and
// the original reservation returned intact.
func (p *Placer) grow(tx *place.Txn, oldG, newG *tag.Graph, tier, d int, ha place.HASpec) (*place.Reservation, error) {
	r := &run{
		p:     p,
		g:     newG,
		model: newG,
		ha:    ha,
		oppHA: p.forceOppHA && !ha.Guaranteed() || ha.Opportunistic,
		tx:    tx,
	}
	r.init()

	// The existing reservation was committed under the old model;
	// reconcile it against the new one first (other tiers' cuts change
	// when this tier's total size changes). This can itself fail when
	// the new size inflates cuts past link capacity.
	if err := tx.SyncAll(); err != nil {
		return p.restore(tx, oldG), err
	}

	st := r.footprint()
	for {
		quota := make([]int, newG.Tiers())
		quota[tier] = d
		made := r.alloc(st, quota)
		if quota[tier] == 0 {
			if err := tx.SyncAll(); err == nil {
				return tx.Commit(), nil
			}
		}
		// Not all placed (or final sync failed): undo this attempt.
		for _, a := range made {
			tx.Unplace(a.server, a.tier, a.k)
		}
		if st == p.tree.Root() {
			return p.restore(tx, oldG),
				place.Rejectf("resize", place.ReasonNoPlacement, "cannot grow tier %q by %d VMs", newG.Tier(tier).Name, d)
		}
		st = p.tree.Parent(st)
	}
}

// footprint returns the lowest node whose subtree contains every placed
// VM of the transaction.
func (r *run) footprint() topology.NodeID {
	tree := r.p.tree
	node := tree.Root()
	for !tree.IsServer(node) {
		var only topology.NodeID = topology.NoNode
		multiple := false
		for _, c := range tree.Children(node) {
			if cnt := r.tx.Count(c); cnt != nil && countSum(cnt) > 0 {
				if only != topology.NoNode {
					multiple = true
					break
				}
				only = c
			}
		}
		if multiple || only == topology.NoNode {
			return node
		}
		node = only
	}
	return node
}

func countSum(c []int) int {
	n := 0
	for _, k := range c {
		n += k
	}
	return n
}

// restore puts the transaction back under the original model and
// re-syncs, returning the restored reservation. Restoration cannot fail:
// the original state was feasible and no other tenant has moved.
func (p *Placer) restore(tx *place.Txn, oldG *tag.Graph) *place.Reservation {
	tx.SetModel(oldG)
	if err := tx.SyncAll(); err != nil {
		panic(fmt.Sprintf("cloudmirror: resize restore failed: %v", err))
	}
	return tx.Commit()
}
