// Package secondnet implements a SecondNet-style baseline placer (Guo et
// al., CoNEXT 2010) for VM-to-VM pipe models.
//
// SecondNet allocates individual VMs with pairwise bandwidth guarantees.
// Following §5.1 of the CloudMirror paper, tenants are converted to
// "idealized" pipe models (each TAG hose/trunk divided uniformly over its
// VM pairs) and VMs are placed one at a time, each on the feasible server
// that minimizes the marginal bandwidth reserved on the path to the
// tenant's subtree — a greedy stand-in for SecondNet's bipartite-matching
// core that preserves its defining properties: per-VM granularity, exact
// pipe accounting, and per-VM placement cost that grows with both tenant
// and datacenter size (O(N³)-family runtime, §4.4).
package secondnet

import (
	"fmt"
	"math"

	"cloudmirror/internal/pipe"
	"cloudmirror/internal/place"
	"cloudmirror/internal/topology"
)

// Placer is the SecondNet-style pipe-model scheduler.
type Placer struct {
	tree *topology.Tree
	// tx is the cached placement transaction, Reset per admission.
	tx *place.Txn
}

// New returns a SecondNet placer for the tree.
func New(tree *topology.Tree) *Placer { return &Placer{tree: tree} }

// Name implements place.Placer.
func (p *Placer) Name() string { return "SecondNet" }

// Place implements place.Placer.
func (p *Placer) Place(req *place.Request) (*place.Reservation, error) {
	model := req.Model
	if model == nil {
		if req.Graph == nil {
			return nil, fmt.Errorf("secondnet: request %d has neither model nor TAG", req.ID)
		}
		model = pipe.FromTAG(req.Graph)
	}

	r := &run{p: p, model: model, resources: req.Resources}
	r.init()

	// One cached transaction per Placer, Reset per admission and rolled
	// back between candidate subtrees (the Placer is single-threaded).
	if p.tx == nil {
		p.tx = place.NewTxn(p.tree, model)
	} else {
		p.tx.Reset(p.tree, model)
	}
	r.tx = p.tx
	r.tx.SetResources(req.Resources)
	st := p.tree.LowestFit(0, r.totalVMs, r.pathHasExternal)
	for st != topology.NoNode {
		if r.allocVMs(st) {
			if err := r.tx.SyncPath(st); err == nil {
				return r.tx.Commit(), nil
			}
		}
		r.tx.ReleaseAll()
		if st == p.tree.Root() {
			break
		}
		st = p.tree.LowestFit(p.tree.Level(st)+1, r.totalVMs, r.pathHasExternal)
	}
	return nil, place.Rejectf("admit", place.ReasonNoPlacement, "tenant %d (%d VMs) does not fit", req.ID, r.totalVMs)
}

type run struct {
	p     *Placer
	model place.Model
	tx    *place.Txn

	sizes     []int
	totalVMs  int
	order     []int // VM placement order as tier indices, repeated
	extOut    float64
	extIn     float64
	resources [][]float64 // per-tier per-VM demands (nil = slot-only)
}

// hostable reports whether server s can take one more tier-t VM by
// slots and resources.
func (r *run) hostable(s topology.NodeID, t int) bool {
	var demand []float64
	if r.resources != nil {
		demand = r.resources[t]
	}
	return r.p.tree.CanHost(s, 1, demand)
}

func (r *run) init() {
	tiers := r.model.Tiers()
	r.sizes = make([]int, tiers)
	demand := make([]float64, tiers)
	for t := 0; t < tiers; t++ {
		r.sizes[t] = r.model.TierSize(t)
		r.totalVMs += r.sizes[t]
		unit := make([]int, tiers)
		unit[t] = 1
		out, in := r.model.Cut(unit)
		demand[t] = out + in
	}
	// Expand to a per-VM order: place the most demanding VMs first, but
	// round-robin within equal tiers so pipes can pair up early.
	remaining := append([]int(nil), r.sizes...)
	for placed := 0; placed < r.totalVMs; {
		best, bestD := -1, -1.0
		for t := 0; t < tiers; t++ {
			if remaining[t] > 0 && demand[t] > bestD {
				best, bestD = t, demand[t]
			}
		}
		r.order = append(r.order, best)
		remaining[best]--
		placed++
	}
	r.extOut, r.extIn = r.model.Cut(r.sizes)
}

func (r *run) pathHasExternal(n topology.NodeID) bool {
	if r.extOut == 0 && r.extIn == 0 {
		return true
	}
	tree := r.p.tree
	ok := true
	tree.PathToRoot(n, func(m topology.NodeID) {
		if m == tree.Root() {
			return
		}
		availOut, availIn := tree.UplinkAvail(m)
		if availOut < r.extOut || availIn < r.extIn {
			ok = false
		}
	})
	return ok
}

// allocVMs places every VM, each on the cheapest feasible server under
// st, syncing the server's path after each placement so pipe reservations
// stay exact.
func (r *run) allocVMs(st topology.NodeID) bool {
	tree := r.p.tree
	for _, t := range r.order {
		var (
			bestServer topology.NodeID = topology.NoNode
			bestCost                   = math.Inf(1)
		)
		tree.ServersUnder(st, func(s topology.NodeID) bool {
			if !r.hostable(s, t) {
				return true
			}
			cost := r.marginalCost(s, st, t)
			// Tie-break toward fuller servers for packing.
			if cost < bestCost-1e-12 ||
				(math.Abs(cost-bestCost) <= 1e-12 && bestServer != topology.NoNode &&
					tree.SlotsFree(s) < tree.SlotsFree(bestServer)) {
				bestCost, bestServer = cost, s
			}
			return true
		})
		if bestServer == topology.NoNode {
			return false
		}
		if err := r.tx.Place(bestServer, t, 1); err != nil {
			return false
		}
		if err := r.tx.SyncBetween(bestServer, st); err != nil {
			r.tx.Unplace(bestServer, t, 1)
			if err := r.tx.SyncBetween(bestServer, st); err != nil {
				panic(fmt.Sprintf("secondnet: rollback re-sync failed: %v", err))
			}
			return false
		}
	}
	return true
}

// marginalCost prices placing one VM of tier t on server s: the total
// increase in pipe bandwidth reserved on the links from s up to st,
// +Inf if any link would overflow.
func (r *run) marginalCost(s, st topology.NodeID, t int) float64 {
	tree := r.p.tree
	tiers := r.model.Tiers()
	cost := 0.0
	n := s
	for {
		counts := r.tx.Count(n)
		var before, after [2]float64
		if counts == nil {
			counts = make([]int, tiers)
		} else {
			before[0], before[1] = r.model.Cut(counts)
			counts = append([]int(nil), counts...)
		}
		counts[t]++
		after[0], after[1] = r.model.Cut(counts)
		dOut, dIn := after[0]-before[0], after[1]-before[1]
		if n != tree.Root() {
			availOut, availIn := tree.UplinkAvail(n)
			if dOut > availOut || dIn > availIn {
				return math.Inf(1)
			}
		}
		cost += math.Max(dOut, 0) + math.Max(dIn, 0)
		if n == st {
			break
		}
		n = tree.Parent(n)
	}
	return cost
}
