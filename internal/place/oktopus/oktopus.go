// Package oktopus implements the Oktopus-style baseline placer (Ballani
// et al., SIGCOMM 2011) that deploys Virtual Oversubscribed Cluster
// models, with the improvements the CloudMirror paper applied for a fair
// comparison (§5):
//
//   - it retries at higher subtrees when an allocation fails, instead of
//     giving up;
//   - it places all clusters of one tenant under a common subtree to
//     localize inter-cluster traffic;
//   - it handles the generalized VOC model: arbitrary sizes, cluster
//     hoses, and inter-cluster bandwidth per cluster.
//
// The defining behavioral difference from CloudMirror remains: Oktopus
// places each cluster independently and always maximizes locality
// (colocation) per cluster, with no inter-cluster structure awareness and
// no slot/bandwidth balancing.
package oktopus

import (
	"fmt"
	"math"
	"sort"

	"cloudmirror/internal/place"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/voc"
)

// Placer is the Oktopus baseline scheduler ("OVOC" in the paper's
// figures).
//
// By default its placement decisions view each cluster through the
// virtual-cluster lens Oktopus natively understands: every VM of cluster
// t carries a hose of B_t, the component's total per-VM guarantee
// (Fig. 3(b) of the paper). That is exactly the behavior §2.2
// criticizes — the algorithm localizes "intra-cluster" traffic that is
// really inter-component, and refuses server packings whose VC hose
// exceeds the uplink even when the true VOC cut would fit. Admission and
// reservation always use the honest VOC model (footnote 7), so
// guarantees are never violated.
type Placer struct {
	tree *topology.Tree
	// vocAware switches the per-server feasibility test from the VC
	// lens to the true VOC cut — a stronger baseline than the paper's.
	vocAware bool
	// tx is the cached placement transaction, Reset per admission.
	tx *place.Txn
}

// Option configures the Oktopus placer.
type Option func(*Placer)

// WithVOCAwareness makes placement decisions use the true VOC cut
// instead of the per-cluster VC lens: a baseline upgrade beyond the
// paper's improved Oktopus, kept for ablation.
func WithVOCAwareness() Option { return func(p *Placer) { p.vocAware = true } }

// New returns an Oktopus placer for the tree.
func New(tree *topology.Tree, opts ...Option) *Placer {
	p := &Placer{tree: tree}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements place.Placer.
func (p *Placer) Name() string {
	if p.vocAware {
		return "OVOC+aware"
	}
	return "OVOC"
}

// profiler lets the placer order clusters by per-VM demand when the
// model provides profiles (voc.Model does).
type profiler interface {
	VMProfile(t int) (out, in float64)
}

// Place implements place.Placer: deploy the tenant's VOC model, cluster
// by cluster, under a common subtree.
func (p *Placer) Place(req *place.Request) (*place.Reservation, error) {
	model := req.Model
	if model == nil {
		if req.Graph == nil {
			return nil, fmt.Errorf("oktopus: request %d has neither model nor TAG", req.ID)
		}
		model = voc.FromTAG(req.Graph)
	}

	r := &run{p: p, model: model, ha: req.HA, resources: req.Resources}
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
	st := p.tree.LowestFit(0, r.totalVMs, r.fits)
	for st != topology.NoNode {
		if r.allocAll(st) {
			if err := r.tx.SyncPath(st); err == nil {
				return r.tx.Commit(), nil
			}
		}
		r.tx.ReleaseAll()
		if st == p.tree.Root() {
			break
		}
		st = p.tree.LowestFit(p.tree.Level(st)+1, r.totalVMs, r.fits)
	}
	return nil, place.Rejectf("admit", place.ReasonNoPlacement, "tenant %d (%d VMs) does not fit", req.ID, r.totalVMs)
}

type run struct {
	p     *Placer
	model place.Model
	ha    place.HASpec
	tx    *place.Txn

	sizes    []int
	totalVMs int
	haCap    []int
	order    []int // cluster placement order: highest per-VM demand first
	extOut   float64
	extIn    float64
	// vcSnd/vcRcv are the per-VM VC-lens hose guarantees per cluster
	// (the component's total send/receive guarantee).
	vcSnd []float64
	vcRcv []float64
	// resources holds per-tier per-VM demand vectors (nil = slot-only).
	resources [][]float64
}

// resourceCap bounds how many more tier-t VMs node n can host by
// declared resources.
func (r *run) resourceCap(n topology.NodeID, t int) int {
	if r.resources == nil {
		return int(math.MaxInt32)
	}
	return r.p.tree.ResourceCap(n, r.resources[t])
}

func (r *run) init() {
	tiers := r.model.Tiers()
	r.sizes = make([]int, tiers)
	r.haCap = make([]int, tiers)
	demand := make([]float64, tiers)
	prof, _ := r.model.(profiler)
	for t := 0; t < tiers; t++ {
		r.sizes[t] = r.model.TierSize(t)
		r.totalVMs += r.sizes[t]
		r.haCap[t] = r.ha.MaxPerDomain(r.sizes[t])
		if prof != nil {
			out, in := prof.VMProfile(t)
			demand[t] = out + in
		} else {
			unit := make([]int, tiers)
			unit[t] = 1
			out, in := r.model.Cut(unit)
			demand[t] = out + in
		}
	}
	r.vcSnd = make([]float64, tiers)
	r.vcRcv = make([]float64, tiers)
	for t := 0; t < tiers; t++ {
		if prof, ok := r.model.(profiler); ok {
			r.vcSnd[t], r.vcRcv[t] = prof.VMProfile(t)
		} else {
			r.vcSnd[t], r.vcRcv[t] = demand[t]/2, demand[t]/2
		}
	}
	r.order = make([]int, 0, tiers)
	for t := 0; t < tiers; t++ {
		if r.sizes[t] > 0 {
			r.order = append(r.order, t)
		}
	}
	sort.Slice(r.order, func(i, j int) bool {
		a, b := r.order[i], r.order[j]
		if demand[a] != demand[b] {
			return demand[a] > demand[b]
		}
		if r.sizes[a] != r.sizes[b] {
			return r.sizes[a] > r.sizes[b]
		}
		return a < b
	})
	r.extOut, r.extIn = r.model.Cut(r.sizes)
}

// fits reports whether subtree n has the fault domains and root-path
// bandwidth the tenant needs, beside the free slots Tree.LowestFit
// checks.
func (r *run) fits(n topology.NodeID) bool { return r.haFits(n) && r.pathHasExternal(n) }

func (r *run) haFits(n topology.NodeID) bool {
	if !r.ha.Guaranteed() {
		return true
	}
	domains := r.domainsUnder(n)
	for t, sz := range r.sizes {
		if sz > domains*r.haCap[t] {
			return false
		}
	}
	return true
}

func (r *run) domainsUnder(n topology.NodeID) int {
	lvl := r.p.tree.Level(n)
	if lvl <= r.ha.LAA {
		return 1
	}
	spec := r.p.tree.Spec()
	d := 1
	for l := r.ha.LAA; l < lvl; l++ {
		d *= spec.Levels[l].Fanout
	}
	return d
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

func (r *run) haBound(n topology.NodeID, t int) int {
	if !r.ha.Guaranteed() || r.p.tree.Level(n) > r.ha.LAA {
		return int(math.MaxInt32)
	}
	dom := r.p.tree.Ancestor(n, r.ha.LAA)
	return r.haCap[t] - r.tx.CountOf(dom, t)
}

// allocAll places every cluster, in decreasing per-VM demand order, under
// the common subtree st.
func (r *run) allocAll(st topology.NodeID) bool {
	for _, t := range r.order {
		if !r.allocCluster(st, t) {
			return false
		}
	}
	return true
}

// syncUpTo reconciles the subtree below cand plus the links from cand up
// to the tenant subtree st, so every node a cluster placement affects is
// validated.
func (r *run) syncUpTo(cand, st topology.NodeID) error {
	if err := r.tx.Sync(cand); err != nil {
		return err
	}
	return r.tx.SyncBetween(cand, st)
}

// allocCluster deploys one cluster: like an Oktopus virtual-cluster
// allocation, it looks for the lowest subtree under st that can hold the
// whole cluster (maximal locality), packs servers greedily within it,
// and verifies bandwidth. On failure it tries the next candidate subtree,
// finally splitting across st itself.
func (r *run) allocCluster(st topology.NodeID, t int) bool {
	for _, cand := range r.clusterCandidates(st, t) {
		if r.packInto(cand, st, t) {
			return true
		}
	}
	return false
}

// clusterCandidates lists subtrees under st able to hold cluster t,
// lowest level first and best-fit (fewest free slots) within a level,
// ending with st itself as the split-placement fallback.
func (r *run) clusterCandidates(st topology.NodeID, t int) []topology.NodeID {
	tree := r.p.tree
	need := r.sizes[t]
	type cand struct {
		n    topology.NodeID
		lvl  int
		free int
	}
	var cands []cand
	var walk func(n topology.NodeID)
	walk = func(n topology.NodeID) {
		// Subtree cut: free-slot aggregates are sums over children, so
		// a subtree below the cluster size cannot contain a candidate.
		free := tree.SlotsFree(n)
		if free == 0 || free < need {
			return
		}
		if r.clusterHAFits(n, t) && n != st {
			cands = append(cands, cand{n, tree.Level(n), free})
		}
		for _, c := range tree.Children(n) {
			walk(c)
		}
	}
	walk(st)
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lvl != cands[j].lvl {
			return cands[i].lvl < cands[j].lvl
		}
		if cands[i].free != cands[j].free {
			return cands[i].free < cands[j].free
		}
		return cands[i].n < cands[j].n
	})
	out := make([]topology.NodeID, 0, len(cands)+1)
	for _, c := range cands {
		out = append(out, c.n)
	}
	return append(out, st)
}

func (r *run) clusterHAFits(n topology.NodeID, t int) bool {
	if !r.ha.Guaranteed() {
		return true
	}
	return r.sizes[t] <= r.domainsUnder(n)*r.haCap[t]
}

// packInto packs cluster t's VMs into servers under cand, first-fit with
// maximal colocation, then verifies the subtree's bandwidth. Following
// the Oktopus allocation, each server receives the largest VM count its
// uplink can still support (the per-node feasible-VM computation of the
// original algorithm), scanning down from full colocation — which also
// finds the zero-cut "whole cluster on one server" packing first. On
// failure it rolls back and reports false.
func (r *run) packInto(cand, st topology.NodeID, t int) bool {
	tree := r.p.tree
	remaining := r.sizes[t]
	var placed []struct {
		s topology.NodeID
		k int
	}
	tree.ServersUnder(cand, func(s topology.NodeID) bool {
		k := r.feasibleCount(s, t, min(remaining, tree.SlotsFree(s), r.haBound(s, t), r.resourceCap(s, t)))
		if k > 0 {
			if err := r.tx.Place(s, t, k); err == nil {
				placed = append(placed, struct {
					s topology.NodeID
					k int
				}{s, k})
				remaining -= k
			}
		}
		return remaining > 0
	})
	if remaining > 0 {
		r.undo(cand, st, placed, t)
		return false
	}
	if err := r.syncUpTo(cand, st); err != nil {
		r.undo(cand, st, placed, t)
		return false
	}
	return true
}

// feasibleCount returns the largest k ≤ maxK such that adding k VMs of
// cluster t to server s passes the placement feasibility test — the
// per-node VM counting of the original Oktopus allocation. The cut is
// not monotone in k (a hose peaks at half the cluster), so it scans
// downward from maximal colocation; k spans at most a server's slot
// count.
//
// In the default (paper-faithful) mode the test is the VC lens:
// min(existing+k, S_t−existing−k)·B_t per direction, where B_t is the
// cluster's total per-VM guarantee. With WithVOCAwareness it prices the
// true VOC cut instead.
func (r *run) feasibleCount(s topology.NodeID, t, maxK int) int {
	if maxK <= 0 {
		return 0
	}
	tree := r.p.tree
	availOut, availIn := tree.UplinkAvail(s)
	cur := r.tx.Count(s)

	if !r.p.vocAware {
		base := 0
		if cur != nil {
			base = cur[t]
		}
		for k := maxK; k > 0; k-- {
			needOut := vcCut(base+k, r.sizes[t], r.vcSnd[t]) - vcCut(base, r.sizes[t], r.vcSnd[t])
			needIn := vcCut(base+k, r.sizes[t], r.vcRcv[t]) - vcCut(base, r.sizes[t], r.vcRcv[t])
			if needOut <= availOut && needIn <= availIn {
				return k
			}
		}
		return 0
	}

	counts := make([]int, r.model.Tiers())
	if cur != nil {
		copy(counts, cur)
	}
	curOut, curIn := r.model.Cut(counts)
	base := counts[t]
	for k := maxK; k > 0; k-- {
		counts[t] = base + k
		out, in := r.model.Cut(counts)
		if out-curOut <= availOut && in-curIn <= availIn {
			return k
		}
	}
	return 0
}

// vcCut is the virtual-cluster hose cut: min(inside, size−inside)·b.
func vcCut(inside, size int, b float64) float64 {
	return float64(min(inside, size-inside)) * b
}

func (r *run) undo(cand, st topology.NodeID, placed []struct {
	s topology.NodeID
	k int
}, t int) {
	for _, pl := range placed {
		r.tx.Unplace(pl.s, t, pl.k)
	}
	if err := r.syncUpTo(cand, st); err != nil {
		panic(fmt.Sprintf("oktopus: rollback re-sync failed: %v", err))
	}
}
