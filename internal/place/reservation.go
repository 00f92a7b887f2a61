package place

import (
	"sort"

	"cloudmirror/internal/topology"
)

// Reservation is a committed tenant: its placement plus every slot and
// bandwidth resource it holds. Release returns everything to the tree
// (tenant departure).
type Reservation struct {
	tree      *topology.Tree
	placement Placement
	reserved  map[topology.NodeID][2]float64
	resources [][]float64
	released  bool
	// ownsSlots is false for accounting-only reservations (Account),
	// which never consumed VM slots and must not release them.
	ownsSlots bool
}

// Placement returns where the tenant's VMs are. The map must not be
// modified.
func (r *Reservation) Placement() Placement { return r.placement }

// ReservedOn returns the (out, in) bandwidth the tenant holds on node n's
// uplink.
func (r *Reservation) ReservedOn(n topology.NodeID) (out, in float64) {
	v := r.reserved[n]
	return v[0], v[1]
}

// TotalReserved returns the tenant's total reserved bandwidth summed over
// all uplinks and both directions. The sum runs in node-ID order, so it
// is bit-identical across calls and runs (float addition is not
// associative, and map iteration order is randomized).
func (r *Reservation) TotalReserved() float64 {
	nodes := make([]topology.NodeID, 0, len(r.reserved))
	for n := range r.reserved {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var sum float64
	for _, n := range nodes {
		sum += r.reserved[n][0] + r.reserved[n][1]
	}
	return sum
}

// Delta exports the reservation's net resource footprint as a
// topology.Delta in canonical (node-ID sorted) form: per-server slot
// and declared-resource consumption plus per-uplink bandwidth. The
// delta is what the optimistic admission path validates and applies on
// the authoritative ledger; accounting-only reservations (Account)
// export bandwidth entries only, since they never consumed slots.
func (r *Reservation) Delta() topology.Delta {
	var d topology.Delta
	if r.ownsSlots {
		//cloudlint:ordered entries are appended per distinct server and the returned delta is sorted by Normalize()
		for server, counts := range r.placement {
			total := 0
			for _, k := range counts {
				total += k
			}
			if total == 0 {
				continue
			}
			d.Slots = append(d.Slots, topology.SlotDelta{Server: server, N: total})
			if r.resources == nil || len(r.tree.Resources()) == 0 {
				continue
			}
			demand := make([]float64, len(r.resources[0]))
			for t, k := range counts {
				for dim, v := range r.resources[t] {
					demand[dim] += float64(k) * v
				}
			}
			d.Resources = append(d.Resources, topology.ResourceDelta{Server: server, Demand: demand})
		}
	}
	//cloudlint:ordered entries are appended per distinct node and the returned delta is sorted by Normalize()
	for n, v := range r.reserved {
		if v[0] == 0 && v[1] == 0 {
			continue
		}
		d.Links = append(d.Links, topology.LinkDelta{Node: n, Out: v[0], In: v[1]})
	}
	return d.Normalize()
}

// Release frees every slot and bandwidth reservation the tenant holds.
// Safe to call once; subsequent calls are no-ops.
func (r *Reservation) Release() {
	if r.released {
		return
	}
	r.released = true
	//cloudlint:ordered each distinct node is released exactly once onto its own ledger entry, so releases commute
	for n, v := range r.reserved {
		r.tree.Release(n, v[0], v[1])
	}
	if !r.ownsSlots {
		return
	}
	// Sorted server order: ReleaseResources folds float credits onto
	// shared ancestor accumulators, so release order must not depend on
	// map iteration for the ledger to stay byte-identical across runs.
	servers := make([]topology.NodeID, 0, len(r.placement))
	for server := range r.placement {
		servers = append(servers, server)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, server := range servers {
		counts := r.placement[server]
		total := 0
		for t, k := range counts {
			total += k
			if k > 0 && r.resources != nil {
				r.tree.ReleaseResources(server, k, r.resources[t])
			}
		}
		if total > 0 {
			r.tree.ReleaseSlots(server, total)
		}
	}
}

// Reopen converts a committed reservation back into a live transaction
// holding the same slots and bandwidth, so a placer can modify the
// tenant incrementally (auto-scaling, §6). The reservation is consumed:
// it must not be used (or released) afterwards; commit or release the
// returned transaction instead. model is the bandwidth model to continue
// under, typically the tenant's (possibly resized) TAG.
func (r *Reservation) Reopen(model Model) *Txn {
	if r.released {
		panic("place: Reopen of a released reservation")
	}
	if !r.ownsSlots {
		panic("place: Reopen of an accounting-only reservation")
	}
	r.released = true // ownership moves to the transaction
	tx := NewTxn(r.tree, model)
	tx.resources = r.resources
	// Deterministic touch order (sorted servers) so subsequent syncs
	// visit nodes reproducibly across runs.
	servers := make([]topology.NodeID, 0, len(r.placement))
	for server := range r.placement {
		servers = append(servers, server)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, server := range servers {
		c := r.placement[server]
		r.tree.PathToRoot(server, func(n topology.NodeID) {
			tx.touch(n)
			agg := tx.row(n)
			for t, k := range c {
				agg[t] += k
			}
		})
		for _, k := range c {
			tx.placed += k
		}
	}
	nodes := make([]topology.NodeID, 0, len(r.reserved))
	for n := range r.reserved {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		v := r.reserved[n]
		tx.resOut[n], tx.resIn[n] = v[0], v[1]
		tx.hasRes[n] = true
		tx.resTouched = append(tx.resTouched, n)
	}
	// The holdings were priced under whatever model committed them; the
	// first sync re-prices every node under this one.
	tx.markAllDirty()
	return tx
}

// Account reserves, on a tree used purely for bandwidth accounting, the
// reservations the given model implies for an existing placement — no VM
// slots are consumed. This is how Table 1 prices the CM+TAG placement
// under the VOC model ("CM+VOC uses the placement obtained by CM+TAG but
// reports the bandwidth allocation resulting from modeling the tenants
// using VOC").
func Account(tree *topology.Tree, model Model, pl Placement) (*Reservation, error) {
	counts := AggregateCounts(tree, model.Tiers(), pl)
	res := &Reservation{
		tree:      tree,
		placement: pl,
		reserved:  make(map[topology.NodeID][2]float64, len(counts)),
	}
	// Deterministic order so failures are reproducible.
	nodes := make([]topology.NodeID, 0, len(counts))
	for n := range counts {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		if n == tree.Root() {
			continue
		}
		out, in := model.Cut(counts[n])
		if out == 0 && in == 0 {
			continue
		}
		if err := tree.Reserve(n, out, in); err != nil {
			res.Release()
			return nil, err
		}
		res.reserved[n] = [2]float64{out, in}
	}
	return res, nil
}

// AggregateCounts expands a per-server placement into per-node inside
// counts for every server and ancestor that holds at least one VM.
func AggregateCounts(tree *topology.Tree, tiers int, pl Placement) map[topology.NodeID][]int {
	counts := make(map[topology.NodeID][]int)
	//cloudlint:ordered per-node counts accumulate by exact integer addition, which commutes
	for server, c := range pl {
		tree.PathToRoot(server, func(n topology.NodeID) {
			agg := counts[n]
			if agg == nil {
				agg = make([]int, tiers)
				counts[n] = agg
			}
			for t, k := range c {
				agg[t] += k
			}
		})
	}
	return counts
}
