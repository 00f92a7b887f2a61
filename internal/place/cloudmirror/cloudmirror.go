// Package cloudmirror implements the CloudMirror VM placement algorithm
// (Algorithm 1 of the paper, §4.4) with the high-availability extensions
// of §4.5: guaranteed worst-case survivability via the Eq. 7 anti-affinity
// cap, and opportunistic anti-affinity for tenants without HA guarantees.
//
// The algorithm maps a Tenant Application Graph onto a tree topology:
//
//   - AllocTenant finds the lowest subtree likely to fit the tenant
//     (FindLowestSubtree) and tries to deploy there, climbing one level on
//     failure until the root rejects.
//   - Alloc recursively distributes VMs over a subtree's children: first
//     Colocate packs tiers whose colocation provably saves bandwidth
//     (Eqs. 2–6), then Balance fills children so that slot and bandwidth
//     utilization approach 100% together (the multi-dimensional
//     subset-sum heuristic of Fig. 6).
//
// Bandwidth feasibility is enforced with the transactional ledger in
// package place: every subtree allocation re-synchronizes the tenant's
// reservations and rolls back on failure.
package cloudmirror

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Placer is the CloudMirror scheduler. Create one per datacenter tree
// with New; it is not safe for concurrent use.
type Placer struct {
	tree *topology.Tree

	// Feature flags for the Fig. 10 ablation study.
	colocate bool
	balance  bool

	// opportunisticHA enables §4.5 opportunistic anti-affinity for
	// tenants whose HASpec requests it (or for all tenants when forced).
	forceOppHA bool

	// emaDemand tracks the average per-VM bandwidth demand of arriving
	// tenants (exponential moving average), the "expected contribution
	// of future tenant VMs" used by the desirability test.
	emaDemand float64

	// tx and scratch are the cached placement transaction and
	// per-request run state, reused across Place calls. The Placer is
	// single-threaded by contract, so one of each suffices; reuse
	// removes the dominant per-admission allocations on the plan path.
	tx      *place.Txn
	scratch run
}

// Option configures a Placer.
type Option func(*Placer)

// WithoutColocate disables the Colocate subroutine (Balance-only, for the
// Fig. 10 micro-benchmark).
func WithoutColocate() Option { return func(p *Placer) { p.colocate = false } }

// WithoutBalance disables the Balance subroutine (Colocate-only). VMs
// that colocation cannot place fall back to a plain first-fit.
func WithoutBalance() Option { return func(p *Placer) { p.balance = false } }

// WithOpportunisticHA applies opportunistic anti-affinity to every tenant
// that lacks a hard HA guarantee (CM+oppHA in Fig. 12).
func WithOpportunisticHA() Option { return func(p *Placer) { p.forceOppHA = true } }

// New returns a CloudMirror placer for the tree.
func New(tree *topology.Tree, opts ...Option) *Placer {
	p := &Placer{tree: tree, colocate: true, balance: true}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name identifies the algorithm variant in experiment output.
func (p *Placer) Name() string {
	switch {
	case p.colocate && p.balance && p.forceOppHA:
		return "CM+oppHA"
	case p.colocate && p.balance:
		return "CM"
	case p.colocate:
		return "CM/coloc-only"
	case p.balance:
		return "CM/balance-only"
	default:
		return "CM/first-fit"
	}
}

// ObserveDemand implements place.DemandObserver: fold one arrival's
// per-VM demand into the desirability estimator's EMA. Place calls it
// on every well-formed request regardless of outcome; replay re-feeds
// recorded arrivals through it so a recovered placer's estimator
// matches the crashed one's bit-for-bit.
func (p *Placer) ObserveDemand(perVM float64) {
	if p.emaDemand == 0 {
		p.emaDemand = perVM
	} else {
		p.emaDemand = 0.9*p.emaDemand + 0.1*perVM
	}
}

// DemandState implements place.DemandObserver: export the estimator for
// a durability snapshot.
func (p *Placer) DemandState() float64 { return p.emaDemand }

// RestoreDemandState implements place.DemandObserver: overwrite the
// estimator with a snapshot value.
func (p *Placer) RestoreDemandState(v float64) { p.emaDemand = v }

// Place implements place.Placer: AllocTenant of Algorithm 1.
func (p *Placer) Place(req *place.Request) (*place.Reservation, error) {
	if req.Graph == nil {
		return nil, fmt.Errorf("cloudmirror: request %d has no TAG", req.ID)
	}
	model := req.Model
	if model == nil {
		model = req.Graph
	}

	r := &p.scratch
	r.reset(p, req.Graph, model, req.HA, req.Resources)

	// Track arriving demand for the desirability estimator regardless of
	// outcome, mirroring "predicted based on previous arrivals".
	p.ObserveDemand(req.Graph.PerVMDemand())

	minLevel := 0
	if r.oppHA {
		// Start the subtree search where bandwidth saving is worth it,
		// but never higher than one level above the fault domain:
		// opportunistic anti-affinity spreads across servers (the LAA
		// domain, §4.5), not across racks or pods — cross-pod spreading
		// would burn scarce core bandwidth for no extra survivability
		// at the server fault level.
		minLevel = min(r.lowestDesirableLevel(), r.laa()+1)
	}
	if p.tx == nil {
		p.tx = place.NewTxn(p.tree, model)
	} else {
		p.tx.Reset(p.tree, model)
	}
	r.tx = p.tx
	r.tx.SetResources(req.Resources)
	st := r.findLowestSubtree(minLevel)
	for st != topology.NoNode {
		quota := append(r.quotaScratch[:0], r.sizes...)
		r.quotaScratch = quota
		r.alloc(st, quota)
		if r.tx.Placed() == r.totalVMs {
			if err := r.tx.SyncPath(st); err == nil {
				return r.tx.Commit(), nil
			}
		}
		r.tx.ReleaseAll()
		lvl := p.tree.Level(st)
		if st == p.tree.Root() {
			break
		}
		st = r.findLowestSubtree(lvl + 1)
	}
	return nil, place.Rejectf("admit", place.ReasonNoPlacement, "tenant %q (%d VMs) does not fit", req.Graph.Name, r.totalVMs)
}

// run holds per-request placement state.
type run struct {
	p     *Placer
	g     *tag.Graph
	model place.Model
	ha    place.HASpec
	oppHA bool

	tx        *place.Txn
	sizes     []int // placeable VMs per tier
	totalVMs  int
	haCap     []int // Eq. 7 per-fault-domain cap per tier
	perVMOut  []float64
	perVMIn   []float64
	extOut    float64 // external demand that must reach the root
	extIn     float64
	resources [][]float64 // per-tier per-VM resource demands (may be nil)
	needRes   []float64   // whole-tenant demand per resource dimension (nil without resources)

	// tg is the model when it is a TAG (nil otherwise): what lets
	// bandwidthFit price touching edges only and rely on Eq. 1's
	// concavity. The tables below belong to it and are built on the
	// request's first bandwidthFit (see buildTouching): each tier's
	// touching edges, and the memo of "k VMs of tier t alone" cuts.
	tg         *tag.Graph
	touchBuilt bool
	touchOff   []int
	touchNext  []int
	touchEdges []tag.Edge
	aloneOff   []int
	aloneOut   []float64
	aloneIn    []float64
	aloneStamp []uint32
	aloneEpoch uint32
	zeroCnt    []int // all zero between alonePrice calls

	// tierOrder is every tier sorted by decreasing per-VM bandwidth
	// demand (index tie-break): the demand comparator is total and
	// run-invariant, so tiersByDemand only filters this permutation.
	tierOrder []int
	// Per-run scratch reused across the inner packing loops. None of
	// these survive the call that fills them, and none are live across
	// the alloc() recursion (audited per use).
	ordScratch   []int
	addsScratch  []int
	cntScratch   []int
	headScratch  []float64
	exclScratch  []bool
	lowScratch   []bool
	quotaScratch []int
	packSeen     []packKey
	// Colocate-search scratch: the live-edge filter and the per-child
	// per-tier bound cache (fillColocBounds) plus the per-subtree
	// achievable-inside table (fillMaxInside). Filled and consumed
	// within one findTiersToColoc call; the alloc() recursion only
	// re-enters findTiersToColoc after the previous fill is dead.
	liveEdgeScratch []tag.Edge
	colocCnt        []int
	colocHA         []int
	colocRC         []int
	maxInScratch    []int
	// colocRows holds findTiersToColoc's per-child results, one table
	// per tree level (see colocRowsFor).
	colocRows [][]colocRow
	// intFree is a free list of per-tier []int buffers for the
	// colocate/balance loops, whose allocations thread through the
	// alloc() recursion and so can be live at several depths at once.
	intFree [][]int
	// needResScratch backs needRes so slot-only requests (needRes nil)
	// don't drop the buffer between resourceful requests.
	needResScratch []float64
}

// reset re-arms the Placer's cached run state for a new request,
// reusing every scratch slice that still fits. Equivalent to building a
// fresh run followed by init, minus the allocations.
func (r *run) reset(p *Placer, g *tag.Graph, model place.Model, ha place.HASpec, resources [][]float64) {
	r.p, r.g, r.model, r.ha = p, g, model, ha
	r.oppHA = p.forceOppHA && !ha.Guaranteed() || ha.Opportunistic
	r.resources = resources
	r.tx = nil
	r.init()
}

// resourceCap bounds how many more tier-t VMs node n's subtree can host
// by declared resources.
func (r *run) resourceCap(n topology.NodeID, t int) int {
	if r.resources == nil {
		return int(math.MaxInt32)
	}
	return r.p.tree.ResourceCap(n, r.resources[t])
}

func (r *run) init() {
	tiers := r.g.Tiers()
	r.sizes = r.g.Sizes()
	r.totalVMs = 0
	r.haCap = growInts(r.haCap, tiers)
	r.perVMOut = growFloats(r.perVMOut, tiers)
	r.perVMIn = growFloats(r.perVMIn, tiers)
	for t := 0; t < tiers; t++ {
		r.totalVMs += r.sizes[t]
		r.haCap[t] = r.ha.MaxPerDomain(r.sizes[t])
		r.perVMOut[t], r.perVMIn[t] = r.g.VMProfile(t)
	}
	r.extOut, r.extIn = r.model.Cut(r.sizes)
	r.tg, _ = r.model.(*tag.Graph)
	r.touchBuilt = false
	r.tierOrder = growInts(r.tierOrder, tiers)
	for t := range r.tierOrder {
		r.tierOrder[t] = t
	}
	slices.SortFunc(r.tierOrder, func(a, b int) int {
		da := r.perVMOut[a] + r.perVMIn[a]
		db := r.perVMOut[b] + r.perVMIn[b]
		switch {
		case da > db:
			return -1
		case da < db:
			return 1
		}
		return cmp.Compare(a, b)
	})
	r.ordScratch = growInts(r.ordScratch, tiers)[:0]
	r.addsScratch = growInts(r.addsScratch, tiers)
	r.cntScratch = growInts(r.cntScratch, tiers)
	r.exclScratch = growBools(r.exclScratch, tiers)
	r.lowScratch = growBools(r.lowScratch, tiers)
	r.colocCnt = growInts(r.colocCnt, tiers)
	r.colocHA = growInts(r.colocHA, tiers)
	r.colocRC = growInts(r.colocRC, tiers)
	r.maxInScratch = growInts(r.maxInScratch, tiers)
	// needRes stays nil for slot-only tenants (callers test nil-ness);
	// its backing array lives in needResScratch so the capacity survives.
	r.needRes = nil
	if r.resources != nil {
		dims := len(r.p.tree.Resources())
		r.headScratch = growFloats(r.headScratch, dims)
		r.needResScratch = growFloats(r.needResScratch, dims)
		r.needRes = r.needResScratch
		for rr := range r.needRes {
			r.needRes[rr] = 0
			for t, sz := range r.sizes {
				r.needRes[rr] += float64(sz) * r.resources[t][rr]
			}
		}
	}
}

// getInts returns a zeroed per-tier buffer from the run's free list.
// Unlike the named scratch slices these nest: the colocate/balance
// loops hold one across the alloc() recursion, whose deeper levels
// acquire their own. Callers return buffers with putInts when the
// iteration that acquired them ends.
func (r *run) getInts() []int {
	tiers := len(r.sizes)
	for n := len(r.intFree); n > 0; n = len(r.intFree) {
		s := r.intFree[n-1]
		r.intFree = r.intFree[:n-1]
		if cap(s) < tiers {
			continue // sized for a smaller tenant; drop it
		}
		s = s[:tiers]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]int, tiers)
}

// putInts returns a getInts buffer to the free list.
func (r *run) putInts(s []int) { r.intFree = append(r.intFree, s) }

// growInts resizes scratch to length n, reusing capacity when it fits.
// Contents are unspecified; every user initializes before reading.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// laa returns the anti-affinity level (server by default).
func (r *run) laa() int { return r.ha.LAA }

// haBound returns how many more VMs of tier t may be placed under node n
// given the Eq. 7 cap. Unlimited when the node is above the anti-affinity
// level or the tenant has no guarantee.
func (r *run) haBound(n topology.NodeID, t int) int {
	if !r.ha.Guaranteed() || r.p.tree.Level(n) > r.laa() {
		return int(math.MaxInt32)
	}
	// n lies within a single fault domain (its level-LAA ancestor); the
	// binding cap is the domain's.
	dom := r.p.tree.Ancestor(n, r.laa())
	return r.haCap[t] - r.tx.CountOf(dom, t)
}

// domainsUnder returns the number of level-LAA fault domains in the
// subtree of a node.
func (r *run) domainsUnder(n topology.NodeID) int {
	lvl := r.p.tree.Level(n)
	if lvl <= r.laa() {
		return 1
	}
	spec := r.p.tree.Spec()
	d := 1
	for l := r.laa(); l < lvl; l++ {
		d *= spec.Levels[l].Fanout
	}
	return d
}

// findLowestSubtree searches bottom-up from minLevel for the first level
// holding a subtree that can plausibly fit the tenant: enough free slots,
// enough fault domains for the Eq. 7 caps, and enough spare bandwidth on
// the path to the root for the tenant's external demand. Within a level
// it picks the feasible subtree with the fewest free slots (best fit), so
// large gaps stay available for large tenants.
func (r *run) findLowestSubtree(minLevel int) topology.NodeID {
	tree := r.p.tree
	for lvl := minLevel; lvl <= tree.Height(); lvl++ {
		// Index prune: skip the whole level when the per-tier bounds
		// prove no subtree here can offer the slots, path bandwidth, or
		// resources the tenant needs (always true on unindexed trees).
		if !tree.LevelMayHost(lvl, r.totalVMs, r.extOut, r.extIn, r.needRes) {
			continue
		}
		best := topology.NoNode
		bestFree := math.MaxInt
		for _, n := range tree.NodesAtLevel(lvl) {
			free := tree.SlotsFree(n)
			if free < r.totalVMs || free >= bestFree {
				continue
			}
			if !r.haFits(n) || !r.pathHasExternal(n) || !r.resourcesFit(n) {
				continue
			}
			best, bestFree = n, free
		}
		if best != topology.NoNode {
			return best
		}
	}
	return topology.NoNode
}

// resourcesFit checks the subtree's aggregate resource capacity against
// the whole tenant's demand.
func (r *run) resourcesFit(n topology.NodeID) bool {
	if r.resources == nil {
		return true
	}
	tree := r.p.tree
	for rr, need := range r.needRes {
		if need > tree.ResourceFree(n, rr)+1e-9 {
			return false
		}
	}
	return true
}

// haFits checks that the subtree has enough fault domains to satisfy the
// Eq. 7 caps for every tier.
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

// pathHasExternal checks that the links from n to the root can still carry
// the tenant's external-component demand.
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

// placement records one alloc action for rollback.
type action struct {
	server topology.NodeID
	tier   int
	k      int
}

// alloc distributes up to quota[t] VMs of each tier over the subtree st
// (Alloc of Algorithm 1). It mutates quota as VMs are placed and returns
// the actions taken. On bandwidth failure everything this call placed is
// rolled back and nil is returned.
func (r *run) alloc(st topology.NodeID, quota []int) []action {
	tree := r.p.tree
	if tree.IsServer(st) {
		return r.allocServer(st, quota)
	}

	var made []action
	// Colocate when enabled and — for opportunistic-HA tenants — when
	// bandwidth saving is desirable here (§4.5 first modification). The
	// size/HA feasibility conditions are enforced inside
	// findTiersToColoc, which returns nothing when no verified saving
	// exists.
	if r.p.colocate && (!r.oppHA || r.desirable(st)) {
		made = append(made, r.runColocate(st, quota)...)
	}
	if remainingVMs(quota) > 0 && r.p.balance {
		made = append(made, r.runBalance(st, quota)...)
	}
	if remainingVMs(quota) > 0 && !r.p.balance {
		// Ablation fallback (Colocate-only variant): first-fit the rest.
		made = append(made, r.firstFit(st, quota)...)
	}
	if len(made) == 0 {
		return nil
	}
	if err := r.tx.Sync(st); err != nil {
		r.rollback(st, made, quota)
		return nil
	}
	return made
}

// allocServer packs quota VMs onto one server, highest-demand tiers
// first, and reserves the server's uplink cut.
func (r *run) allocServer(st topology.NodeID, quota []int) []action {
	free := r.p.tree.SlotsFree(st)
	if free == 0 {
		return nil
	}
	order := r.tiersByDemand(quota)
	var made []action
	for _, t := range order {
		k := min(quota[t], free, r.resourceCap(st, t))
		if hb := r.haBound(st, t); k > hb {
			k = hb
		}
		if k <= 0 {
			continue
		}
		if err := r.tx.Place(st, t, k); err != nil {
			continue
		}
		quota[t] -= k
		free -= k
		made = append(made, action{st, t, k})
		if free == 0 {
			break
		}
	}
	if len(made) == 0 {
		return nil
	}
	if err := r.tx.Sync(st); err != nil {
		r.rollback(st, made, quota)
		return nil
	}
	return made
}

// rollback undoes a failed alloc: unplace every action and re-synchronize
// the subtree so reservations shrink back to their prior (feasible)
// values.
func (r *run) rollback(st topology.NodeID, made []action, quota []int) {
	for _, a := range made {
		r.tx.Unplace(a.server, a.tier, a.k)
		quota[a.tier] += a.k
	}
	// Re-sync releases the stale child reservations; it cannot fail
	// because it only restores a previously feasible state.
	if err := r.tx.Sync(st); err != nil {
		panic(fmt.Sprintf("cloudmirror: rollback re-sync failed: %v", err))
	}
}

// tiersByDemand returns tier indices with quota remaining, ordered by
// decreasing per-VM bandwidth demand. The result aliases per-run
// scratch: it is valid until the next tiersByDemand call and must not
// be retained.
func (r *run) tiersByDemand(quota []int) []int {
	order := r.ordScratch[:0]
	for _, t := range r.tierOrder {
		if quota[t] > 0 {
			order = append(order, t)
		}
	}
	return order
}

func remainingVMs(quota []int) int {
	n := 0
	for _, q := range quota {
		n += q
	}
	return n
}

// firstFit is the fallback used when Balance is disabled: fill children
// left to right.
func (r *run) firstFit(st topology.NodeID, quota []int) []action {
	var made []action
	for _, c := range r.p.tree.Children(st) {
		if remainingVMs(quota) == 0 {
			break
		}
		if r.p.tree.SlotsFree(c) == 0 {
			continue
		}
		made = append(made, r.alloc(c, quota)...)
	}
	return made
}
