package cloudmirror

import (
	"math"
	"slices"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// This file implements the Balance subroutine of Algorithm 1: the
// multi-dimensional subset-sum heuristic (§4.4) that packs VMs for which
// bandwidth saving is infeasible so that slot and uplink utilization of a
// child approach 100% together (Fig. 6(d)), plus the §4.5 opportunistic
// anti-affinity variant that spreads VMs one at a time when bandwidth
// saving is undesirable.

// runBalance repeatedly asks mdSubsetSum for the best (VM set, child)
// pair and allocates it until quota is exhausted or no child can accept
// more.
func (r *run) runBalance(st topology.NodeID, quota []int) []action {
	var made []action
	var failed failSet
	for remainingVMs(quota) > 0 {
		adds, child := r.mdSubsetSum(st, quota, failed)
		if adds == nil {
			return made
		}
		orig := r.getInts()
		copy(orig, adds)
		sub := r.alloc(child, adds)
		progressed := false
		for t := range adds {
			if placed := orig[t] - adds[t]; placed > 0 {
				quota[t] -= placed
				progressed = true
			}
		}
		r.putInts(orig)
		r.putInts(adds)
		made = append(made, sub...)
		if !progressed {
			failed = append(failed, child)
		}
	}
	return made
}

// mdSubsetSum selects the child of st and the multiset of VMs that bring
// the child's slot, outgoing-bandwidth and incoming-bandwidth utilization
// closest to 100% together — a three-dimensional greedy subset-sum using
// the utilization ratio of each resource as the common metric, iterating
// over tiers rather than individual VMs (§4.4).
//
// Plain children — none of the tenant's VMs inside, uncapped — differ to
// packChild only in their free slots and available uplink bandwidth
// (siblings share slot totals and uplink capacity), so of those equal in
// all three only the first is packed: a twin would score the same and,
// ties going to the earlier child, could not win.
//
// When the tenant runs under opportunistic anti-affinity and bandwidth
// saving is undesirable at st, it instead returns a single VM for the
// child with the most headroom, spreading the tenant across children
// (§4.5, third modification).
func (r *run) mdSubsetSum(st topology.NodeID, quota []int, failed failSet) ([]int, topology.NodeID) {
	if r.oppHA && !r.desirable(st) {
		return r.spreadOne(st, quota, failed)
	}

	tree := r.p.tree
	var (
		bestScore float64         = -1
		bestChild topology.NodeID = topology.NoNode
		bestAdds  []int
	)
	seen := r.packSeen[:0]
	for _, c := range tree.Children(st) {
		free := tree.SlotsFree(c)
		if free == 0 || failed.has(c) {
			continue
		}
		bare := allZero(r.tx.Count(c))
		if bare && r.uncapped(c) {
			out, in := childBudget(tree, c)
			k := packKey{free, out, in}
			if slices.Contains(seen, k) {
				continue
			}
			seen = append(seen, k)
		}
		adds, score := r.packChild(c, quota, bare)
		if adds != nil && score > bestScore {
			bestScore, bestChild = score, c
			// adds aliases packChild's scratch; keep a private copy.
			if bestAdds == nil {
				bestAdds = r.getInts()
			}
			copy(bestAdds, adds)
		}
	}
	r.packSeen = seen[:0]
	return bestAdds, bestChild
}

// packKey is everything packChild reads about a plain child.
type packKey struct {
	free              int
	availOut, availIn float64
}

// uncapped reports whether nothing but slots and bandwidth limits what c
// may host: it sits above the Eq. 7 fault domain (or the tenant has no
// guarantee) and the tenant declares no resources.
func (r *run) uncapped(c topology.NodeID) bool {
	return r.resources == nil && !(r.ha.Guaranteed() && r.p.tree.Level(c) <= r.laa())
}

// packChild greedily fills child c from quota, largest relative demand
// first, and returns the fill plus its utilization score. bare says the
// child holds none of the tenant's VMs.
func (r *run) packChild(c topology.NodeID, quota []int, bare bool) ([]int, float64) {
	tree := r.p.tree
	free := tree.SlotsFree(c)
	if free == 0 {
		return nil, 0
	}
	availOut, availIn := childBudget(tree, c)
	base := r.tx.Count(c)

	// Greedy item order: decreasing maximum utilization ratio across the
	// three resources, the common-metric extension of the 1-D greedy
	// subset-sum approximation.
	order := r.tiersByDemand(quota)
	slotsLeft, outLeft, inLeft := free, availOut, availIn
	adds := r.addsScratch
	for i := range adds {
		adds[i] = 0
	}
	resLeft := r.resourceHeadroom(c)
	placedAny := false
	for _, t := range order {
		if slotsLeft == 0 {
			break
		}
		k := min(quota[t], slotsLeft, r.haBound(c, t), r.headroomFit(resLeft, t))
		if k <= 0 {
			continue
		}
		if kb := r.bandwidthFit(base, adds, bare && !placedAny, t, k, outLeft, inLeft); kb < k {
			k = kb
		}
		if k <= 0 {
			continue
		}
		adds[t] += k
		slotsLeft -= k
		// Approximate the bandwidth consumed with the per-VM profile;
		// Sync validates the true cut afterwards.
		outLeft -= float64(k) * r.perVMOut[t]
		inLeft -= float64(k) * r.perVMIn[t]
		if outLeft < 0 {
			outLeft = 0
		}
		if inLeft < 0 {
			inLeft = 0
		}
		r.consumeHeadroom(resLeft, t, k)
		placedAny = true
	}
	if !placedAny {
		return nil, 0
	}

	// Utilization score after the hypothetical fill: how close slot and
	// bandwidth utilization get to 100% together.
	su := 1 - float64(slotsLeft)/float64(tree.SlotsTotal(c))
	ou, iu := 1.0, 1.0
	if cap := tree.UplinkCap(c); cap > 0 {
		ou = 1 - outLeft/cap
		iu = 1 - inLeft/cap
	}
	return adds, su + ou + iu
}

// resourceHeadroom snapshots the child's free resource capacities into
// per-run scratch (nil when the topology declares none or the tenant is
// slot-only).
func (r *run) resourceHeadroom(c topology.NodeID) []float64 {
	if r.resources == nil {
		return nil
	}
	tree := r.p.tree
	head := r.headScratch
	for rr := range head {
		head[rr] = tree.ResourceFree(c, rr)
	}
	return head
}

// headroomFit bounds how many tier-t VMs fit in the remaining headroom.
func (r *run) headroomFit(head []float64, t int) int {
	if head == nil {
		return int(math.MaxInt32)
	}
	k := int(math.MaxInt32)
	for rr, h := range head {
		d := r.resources[t][rr]
		if d <= 0 {
			continue
		}
		if fit := int(h / d); fit < k {
			k = fit
		}
	}
	return k
}

// consumeHeadroom deducts k tier-t VMs from the headroom snapshot.
func (r *run) consumeHeadroom(head []float64, t, k int) {
	if head == nil {
		return
	}
	for rr := range head {
		head[rr] -= float64(k) * r.resources[t][rr]
		if head[rr] < 0 {
			head[rr] = 0
		}
	}
}

// Margins of the two-probe zero proof in bandwidthFit. A marginal cut is
// the difference of two sums of at most a few hundred non-negative
// products; at the Mbps magnitudes the ledger works in (≤ 1e6) their
// float error is ≈ 1e-9, three orders below fitMargin. fitRelMargin
// keeps the proof sound for guarantees of any magnitude: it bounds the
// relative error of such sums with six orders to spare.
const (
	fitMargin    = 1e-6
	fitRelMargin = 1e-9
)

// bandwidthFit returns the largest k ≤ maxK such that adding k VMs of
// tier t to the child's current fill (base, the tenant's counts already
// inside the child, plus adds, the fill being built) keeps the marginal
// cut within the remaining bandwidth budget. The cut is not monotone in k
// (a hose peaks at half the tier and drops to zero at full colocation),
// so it probes maximal colocation first — finding zero-cut full packings
// — and scans downward from there. Sync still enforces the true cut
// after placement. bare says that base and adds are both all zero.
//
// Under the TAG model only edges touching tier t change with k, and the
// contribution of every other edge cancels out of the marginal
// comparison, so only the touching edges (collected once per request)
// are priced per probe. Two shortcuts skip probes whose result is proven:
//
//   - Two probes prove a zero. Each touching edge contributes, per
//     direction, min(a·k + b, c) or — a self-loop — min(k + b, c − k)·S to
//     the cut (Eq. 1): a minimum of functions linear in k, hence concave,
//     and so is their sum and the marginal cut m(k) = cut(k) − cut(0).
//     The k whose m(k) exceeds a budget therefore form an interval: if
//     k = 1 and k = maxK both overshoot the same direction, every k
//     between does, and the downward scan would return 0. Floats are not
//     exact, so both ends must overshoot by more than fitMargin plus
//     fitRelMargin of the sums involved; an overshoot inside the margin
//     proves nothing and falls through to the scan.
//     (TestCutConcaveInK checks the concavity in exact arithmetic.)
//   - A bare child prices like every other bare child. With nothing of
//     the tenant inside, cut(0) is exactly (0, 0) and m(k) is the cut of
//     "k VMs of tier t alone", the same number for every child of every
//     subtree: it is priced once per request per (t, k).
//
// Other models (VOC, hose, pipe) promise no concavity and keep the plain
// scan over Model.Cut.
func (r *run) bandwidthFit(base, adds []int, bare bool, t, maxK int, outLeft, inLeft float64) int {
	if maxK <= 0 {
		return 0
	}
	counts := r.cntScratch
	for i := range counts {
		counts[i] = adds[i]
		if base != nil {
			counts[i] += base[i]
		}
	}
	baseT := counts[t]
	tg := r.tg
	if tg == nil {
		out0, in0 := r.model.Cut(counts)
		for k := maxK; k > 0; k-- {
			counts[t] = baseT + k
			out, in := r.model.Cut(counts)
			if out-out0 <= outLeft && in-in0 <= inLeft {
				return k
			}
		}
		return 0
	}

	touch := r.touching(t)
	var out0, in0 float64
	if !bare {
		out0, in0 = tg.EdgesCut(touch, counts)
	}
	// probe prices the fill at k: the two edge sums, and whether the
	// marginal cut fits both budgets.
	probe := func(k int) (eo, ei float64, fits bool) {
		if bare {
			eo, ei = r.alonePrice(touch, t, k)
		} else {
			counts[t] = baseT + k
			eo, ei = tg.EdgesCut(touch, counts)
		}
		return eo, ei, eo-out0 <= outLeft && ei-in0 <= inLeft
	}
	hiOut, hiIn, fits := probe(maxK)
	if fits {
		return maxK
	}
	if maxK == 1 {
		return 0
	}
	loOut, loIn, loFits := probe(1)
	if maxK >= 3 && !loFits {
		over := func(e, e0, left float64) bool {
			return e-e0 > left+fitMargin+fitRelMargin*(e+e0)
		}
		if over(hiOut, out0, outLeft) && over(loOut, out0, outLeft) ||
			over(hiIn, in0, inLeft) && over(loIn, in0, inLeft) {
			return 0
		}
	}
	for k := maxK - 1; k > 1; k-- {
		if _, _, fits := probe(k); fits {
			return k
		}
	}
	if loFits {
		return 1
	}
	return 0
}

// touching returns the TAG edges incident to tier t in graph order (the
// order EdgesCut must sum them in), from a per-request table built on
// first use: admissions that never reach Balance never pay for it.
func (r *run) touching(t int) []tag.Edge {
	if !r.touchBuilt {
		r.buildTouching()
	}
	return r.touchEdges[r.touchOff[t]:r.touchOff[t+1]]
}

// buildTouching fills the per-tier touching-edge table (a counting sort
// of the edge list by endpoint tier, so each tier's edges keep graph
// order) and sizes the alone-price memo.
func (r *run) buildTouching() {
	tiers := len(r.sizes)
	off := growInts(r.touchOff, tiers+1)
	for i := range off {
		off[i] = 0
	}
	edges := r.tg.Edges()
	for _, e := range edges {
		off[e.From+1]++
		if !e.SelfLoop() {
			off[e.To+1]++
		}
	}
	for t := 0; t < tiers; t++ {
		off[t+1] += off[t]
	}
	if cap(r.touchEdges) < off[tiers] {
		r.touchEdges = make([]tag.Edge, off[tiers])
	}
	r.touchEdges = r.touchEdges[:off[tiers]]
	next := growInts(r.touchNext, tiers)
	copy(next, off[:tiers])
	for _, e := range edges {
		r.touchEdges[next[e.From]] = e
		next[e.From]++
		if !e.SelfLoop() {
			r.touchEdges[next[e.To]] = e
			next[e.To]++
		}
	}
	r.touchOff, r.touchNext = off, next

	// Memo slot of (t, k) is aloneOff[t]+k, k ∈ [0, size of t]. Entries
	// are valid when stamped with this request's epoch, so a new request
	// invalidates the table without clearing it.
	aoff := growInts(r.aloneOff, tiers)
	n := 0
	for t, sz := range r.sizes {
		aoff[t] = n
		n += sz + 1
	}
	r.aloneOff = aoff
	if cap(r.aloneStamp) < n {
		r.aloneOut = make([]float64, n)
		r.aloneIn = make([]float64, n)
		r.aloneStamp = make([]uint32, n)
		r.aloneEpoch = 0
	}
	r.aloneOut, r.aloneIn = r.aloneOut[:n], r.aloneIn[:n]
	r.aloneStamp = r.aloneStamp[:cap(r.aloneStamp)]
	r.aloneEpoch++
	if r.aloneEpoch == 0 { // wrapped: stale stamps could collide
		clear(r.aloneStamp)
		r.aloneEpoch = 1
	}
	r.zeroCnt = growInts(r.zeroCnt, tiers)
	clear(r.zeroCnt)
	r.touchBuilt = true
}

// alonePrice returns the touching-edge cut of a subtree holding k VMs of
// tier t and nothing else of the tenant, priced once per request.
func (r *run) alonePrice(touch []tag.Edge, t, k int) (out, in float64) {
	i := r.aloneOff[t] + k
	if r.aloneStamp[i] != r.aloneEpoch {
		r.zeroCnt[t] = k
		r.aloneOut[i], r.aloneIn[i] = r.tg.EdgesCut(touch, r.zeroCnt)
		r.zeroCnt[t] = 0
		r.aloneStamp[i] = r.aloneEpoch
	}
	return r.aloneOut[i], r.aloneIn[i]
}

// allZero reports whether every count is zero (true for nil: a subtree
// the transaction never touched).
func allZero(counts []int) bool {
	for _, k := range counts {
		if k != 0 {
			return false
		}
	}
	return true
}

// childBudget returns the available (out, in) bandwidth of c's uplink —
// unbounded for the root, which has none.
func childBudget(tree *topology.Tree, c topology.NodeID) (float64, float64) {
	if c == tree.Root() {
		return math.Inf(1), math.Inf(1)
	}
	return tree.UplinkAvail(c)
}

// spreadOne returns a single VM of the highest-demand remaining tier and
// the child with the most headroom for it, encouraging distributed
// allocations across all children while keeping slot and bandwidth use
// balanced (§4.5).
func (r *run) spreadOne(st topology.NodeID, quota []int, failed failSet) ([]int, topology.NodeID) {
	tree := r.p.tree
	order := r.tiersByDemand(quota)
	if len(order) == 0 {
		return nil, topology.NoNode
	}
	t := order[0]

	var (
		best      topology.NodeID = topology.NoNode
		bestScore float64         = -1
	)
	for _, c := range tree.Children(st) {
		if failed.has(c) || tree.SlotsFree(c) == 0 || r.haBound(c, t) < 1 {
			continue
		}
		// Headroom score: free slot fraction plus free bandwidth
		// fraction; maximizing it spreads VMs and balances resources.
		score := float64(tree.SlotsFree(c)) / float64(tree.SlotsTotal(c))
		if cap := tree.UplinkCap(c); cap > 0 {
			ao, ai := tree.UplinkAvail(c)
			score += (ao + ai) / (2 * cap)
		} else {
			score += 1
		}
		if score > bestScore {
			bestScore, best = score, c
		}
	}
	if best == topology.NoNode {
		return nil, topology.NoNode
	}
	adds := r.getInts()
	adds[t] = 1
	return adds, best
}

// desirable reports whether bandwidth saving is worth pursuing at st:
// true when the available bandwidth per unallocated slot under st is
// scarcer than the per-VM demand the datacenter is seeing (the tenant's
// own demand or the arrival-history estimate, whichever is larger) —
// §4.5 "Opportunistic Anti-Affinity".
func (r *run) desirable(st topology.NodeID) bool {
	perSlot := r.availPerSlot(st)
	if perSlot <= 0 {
		return true // no headroom at all: save whatever we can
	}
	demand := r.g.PerVMDemand()
	if r.p.emaDemand > demand {
		demand = r.p.emaDemand
	}
	return perSlot < demand
}

// lowestDesirableLevel returns the lowest subtree level at which
// bandwidth saving is desirable, used by opportunistic anti-affinity to
// skip pointless colocation at well-provisioned levels and place across
// multiple servers instead.
func (r *run) lowestDesirableLevel() int {
	tree := r.p.tree
	demand := r.g.PerVMDemand()
	if r.p.emaDemand > demand {
		demand = r.p.emaDemand
	}
	for lvl := 0; lvl <= tree.Height(); lvl++ {
		measure := max(lvl-1, 0)
		var bw float64
		var slots int
		for _, n := range tree.NodesAtLevel(measure) {
			o, i := tree.UplinkAvail(n)
			bw += (o + i) / 2
			slots += tree.SlotsFree(n)
		}
		if slots == 0 {
			continue
		}
		if bw/float64(slots) < demand {
			return lvl
		}
	}
	return tree.Height()
}
