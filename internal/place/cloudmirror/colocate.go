package cloudmirror

import (
	"math"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// This file implements the Colocate subroutine of Algorithm 1: packing
// tiers whose colocation provably reduces the bandwidth reserved on the
// subtree's child uplinks, per the saving conditions of §4.2.

// runColocate repeatedly asks findTiersToColoc for the (tier set, child)
// pair with the largest verified bandwidth saving and allocates it,
// until no positive saving remains (the Colocate loop of Algorithm 1).
//
// A refusal that changed nothing is not rescanned. findTiersToColoc
// leaves each child's best pack in the level's row table; when
// alloc(child) then places nothing, the next answer is the best row among
// the children not yet failed (bestColoc) — provided every input of the
// scan is bit-identical to what it read (colocLoop.try decides): quota
// and the tenant's counts (integers, restored by the rollback), free
// slots (likewise), and every uplink's available bandwidth. The last is
// the delicate one: a reservation applied and then released need not
// restore an accumulator's bits, so equality of reservations proves
// nothing; what does is that the refusal applied no reservation at all
// (Txn.Reserves stood still — a refused allocServer never gets one
// applied). Declared resources are float accumulators the same refusal
// does use and release, so a tenant that declares any always rescans.
func (r *run) runColocate(st topology.NodeID, quota []int) []action {
	var made []action
	loop := colocLoop{st: st, rows: r.colocRowsFor(st)}
	for {
		adds, child := loop.next(r, quota)
		if adds == nil {
			return made
		}
		made = append(made, loop.try(r, quota, adds, child)...)
	}
}

// colocLoop is the state of one runColocate: the subtree, the table of
// its last scan (one row per child), the children given up on, and
// whether the table still describes the tree.
type colocLoop struct {
	st     topology.NodeID
	rows   []colocRow
	failed failSet
	// unchanged: the last try was a refusal that left the tree and quota
	// exactly as the scan that filled rows read them.
	unchanged bool
}

// next returns the pack to try: the best remaining row of an unchanged
// scan, or a fresh scan's winner.
func (l *colocLoop) next(r *run, quota []int) ([]int, topology.NodeID) {
	if l.unchanged {
		return r.bestColoc(l.st, l.rows, l.failed)
	}
	return r.findTiersToColoc(l.st, quota, l.failed, l.rows)
}

// try allocates adds under child, charges what was placed to quota and
// records whether the attempt left a trace.
func (l *colocLoop) try(r *run, quota, adds []int, child topology.NodeID) []action {
	reserves := r.tx.Reserves()
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
	l.unchanged = false
	if !progressed {
		// Bandwidth below child refused the allocation; do not
		// offer this child again for colocation.
		l.failed = append(l.failed, child)
		l.unchanged = r.resources == nil && r.tx.Reserves() == reserves
	}
	return sub
}

// colocRow is one child's best pack from a findTiersToColoc scan: aT VMs
// of tier t and aT2 of tier t2 for the given saving (zero: no verified
// pack, or the child was skipped).
type colocRow struct {
	saving  float64
	t, t2   int
	aT, aT2 int
	// plain marks a child the scan priced from its free-slot count
	// alone (see findTiersToColoc); free is that count.
	plain bool
	free  int
}

// colocRowsFor returns the row table for a scan of st, one row per child.
// There is one table per tree level: the Colocate loops of different
// levels nest through alloc, and each needs its scan to survive the
// recursion below it.
func (r *run) colocRowsFor(st topology.NodeID) []colocRow {
	tree := r.p.tree
	if r.colocRows == nil {
		r.colocRows = make([][]colocRow, tree.Height()+1)
	}
	lvl, n := tree.Level(st), len(tree.Children(st))
	if cap(r.colocRows[lvl]) < n {
		r.colocRows[lvl] = make([]colocRow, n)
	}
	return r.colocRows[lvl][:n]
}

// bestColoc answers from a filled scan: the first child not in failed
// with the strictly largest saving, exactly the winner a fresh
// findTiersToColoc over unchanged state would pick (it keeps the first
// of equal savings, within a child and across children).
func (r *run) bestColoc(st topology.NodeID, rows []colocRow, failed failSet) ([]int, topology.NodeID) {
	children := r.p.tree.Children(st)
	best := -1
	var bestSaving float64
	for i := range rows {
		if rows[i].saving > bestSaving && !failed.has(children[i]) {
			best, bestSaving = i, rows[i].saving
		}
	}
	if best < 0 {
		return nil, topology.NoNode
	}
	row := &rows[best]
	adds := r.getInts()
	adds[row.t] += row.aT
	adds[row.t2] += row.aT2
	return adds, children[best]
}

// findTiersToColoc evaluates every (edge, child) combination and returns
// the per-tier VM counts to colocate under the best child, or nil when no
// combination yields a positive, verified (Eq. 4) bandwidth saving. Each
// child's own best pack is left in rows for runColocate to reuse.
//
// Following §4.4, tiers with low per-VM bandwidth demand relative to the
// per-slot available bandwidth of st's children are excluded whenever
// some high-bandwidth tier cannot itself achieve colocation savings
// (size or HA constraints): those low-bandwidth VMs are kept back for
// Balance to pair with the high-bandwidth VMs (Fig. 6(d)).
//
// A child that holds none of the tenant's VMs, sits above the Eq. 7
// fault domain and faces no declared-resource cap is "plain": nothing
// bestEdgePack reads about it differs from another plain child's except
// its free-slot count. Plain children with equal free slots therefore
// get equal rows, and only the first is priced — the copy ties it and so
// could not have won this scan, but is there for bestColoc once the
// first has failed.
func (r *run) findTiersToColoc(st topology.NodeID, quota []int, failed failSet, rows []colocRow) ([]int, topology.NodeID) {
	tree := r.p.tree
	children := tree.Children(st)
	clear(rows)

	// An edge is live while at least one endpoint tier has quota left: a
	// pack only ever adds VMs from quota, so a dead edge cannot produce
	// a positive saving for any child. Late Colocate iterations — the
	// bulk of this function's calls — have drained most tiers, so the
	// filter shrinks the (child, edge) scan exactly when it matters.
	live := r.liveEdgeScratch[:0]
	for _, e := range r.g.Edges() {
		if quota[e.From] > 0 || (!e.SelfLoop() && quota[e.To] > 0) {
			live = append(live, e)
		}
	}
	r.liveEdgeScratch = live
	if len(live) == 0 {
		return nil, topology.NoNode
	}

	excluded := r.lowBandwidthExclusions(st, quota)

	for i, c := range children {
		if failed.has(c) || tree.SlotsFree(c) == 0 {
			continue
		}
		row := &rows[i]
		row.free = tree.SlotsFree(c)
		row.plain = r.fillColocBounds(c)
		if row.plain {
			if j := plainTwin(rows[:i], row.free); j >= 0 {
				*row = rows[j]
				continue
			}
		}
		for _, e := range live {
			aT, aT2, saving := r.bestEdgePack(c, e, quota, row.free, excluded)
			if saving > row.saving {
				row.saving = saving
				row.t, row.t2, row.aT, row.aT2 = e.From, e.To, aT, aT2
			}
		}
	}
	return r.bestColoc(st, rows, failed)
}

// plainTwin returns the index of a priced plain row with the given free
// slot count, or -1.
func plainTwin(rows []colocRow, free int) int {
	for j := range rows {
		if rows[j].plain && rows[j].free == free {
			return j
		}
	}
	return -1
}

// fillColocBounds caches, per tier, the child-local quantities every
// bestEdgePack probe needs — the tenant's current VM count, the Eq. 7
// HA headroom, and the declared-resource cap — so that edges sharing a
// tier price them once per child instead of once per (child, edge)
// probe. Values match haBound/resourceCap/CountOf exactly (quota plays
// no part), so swapping the cache for the calls cannot change any
// packing decision.
//
// It reports whether the child is plain: no VMs of the tenant inside, no
// Eq. 7 bound at its level and no declared resources, so that all three
// tables hold the same values for every plain child.
func (r *run) fillColocBounds(c topology.NodeID) (plain bool) {
	tree := r.p.tree
	cnt, hab, rc := r.colocCnt, r.colocHA, r.colocRC
	bounded := r.ha.Guaranteed() && tree.Level(c) <= r.laa()
	var dom topology.NodeID
	if bounded {
		dom = tree.Ancestor(c, r.laa())
	}
	plain = r.uncapped(c)
	for t := range cnt {
		cnt[t] = r.tx.CountOf(c, t)
		if cnt[t] != 0 {
			plain = false
		}
		if bounded {
			hab[t] = r.haCap[t] - r.tx.CountOf(dom, t)
		} else {
			hab[t] = int(math.MaxInt32)
		}
		rc[t] = r.resourceCap(c, t)
	}
	return plain
}

// bestEdgePack computes how many VMs of edge e's endpoint tiers (aT of
// e.From, aT2 of e.To) to pack into child c and the marginal bandwidth
// saving of doing so. For trunks it tries both fill orders and keeps the
// better; for self-loops aT2 is 0 (the whole add is aT on the loop
// tier). A zero saving means no verified pack exists. The caller must
// have primed the per-tier bound cache with fillColocBounds(c).
func (r *run) bestEdgePack(c topology.NodeID, e tag.Edge, quota []int, free int, excluded []bool) (aT, aT2 int, saving float64) {
	t := e.From
	if e.SelfLoop() {
		if excluded[t] {
			return 0, 0, 0
		}
		add := min(quota[t], free, r.colocHA[t], r.colocRC[t])
		if add <= 0 {
			return 0, 0, 0
		}
		cur := r.colocCnt[t]
		// Cheap necessary condition (Eq. 2) before pricing the saving.
		if !tag.HoseSavingFeasible(r.sizes[t], cur+add) {
			return 0, 0, 0
		}
		saving = r.g.SelfLoopSaving(e, cur+add) - r.g.SelfLoopSaving(e, cur)
		if saving <= 0 {
			return 0, 0, 0
		}
		return add, 0, saving
	}

	t2 := e.To
	curT, curT2 := r.colocCnt[t], r.colocCnt[t2]
	maxT := boundedAdd(min(quota[t], r.colocRC[t]), free, r.colocHA[t], excluded[t])
	maxT2 := boundedAdd(min(quota[t2], r.colocRC[t2]), free, r.colocHA[t2], excluded[t2])
	if maxT+maxT2 == 0 {
		return 0, 0, 0
	}
	// Necessary condition (Eq. 6) on the achievable inside counts.
	if !tag.TrunkSavingFeasible(r.sizes[t], r.sizes[t2], curT+maxT, curT2+maxT2) {
		return 0, 0, 0
	}
	// A child with no VMs of either tier has nothing to improve on:
	// EdgeSaving(e, 0, 0) is identically zero (worst and actual
	// coincide in both directions), so skip pricing it.
	var base float64
	if curT != 0 || curT2 != 0 {
		base = r.g.EdgeSaving(e, curT, curT2)
	}

	try := func(firstT bool) (int, int, float64) {
		aT, aT2 := maxT, maxT2
		if firstT {
			if aT2 > free-aT {
				aT2 = free - aT
			}
		} else {
			if aT > free-aT2 {
				aT = free - aT2
			}
		}
		if aT < 0 {
			aT = 0
		}
		if aT2 < 0 {
			aT2 = 0
		}
		if aT+aT2 == 0 {
			return 0, 0, 0
		}
		// Verify the actual saving (Eq. 4) before colocating.
		saving := r.g.EdgeSaving(e, curT+aT, curT2+aT2) - base
		if saving <= 0 {
			return 0, 0, 0
		}
		return aT, aT2, saving
	}

	a1, a1b, s1 := try(true)
	if maxT+maxT2 <= free {
		// Neither order has to shed VMs, so both price the identical
		// (maxT, maxT2) pack — one probe suffices.
		return a1, a1b, s1
	}
	a2, a2b, s2 := try(false)
	if s2 > s1 {
		return a2, a2b, s2
	}
	return a1, a1b, s1
}

func boundedAdd(quota, free, haBound int, excluded bool) int {
	if excluded {
		return 0
	}
	return min(quota, free, haBound)
}

// lowBandwidthExclusions returns, per tier, whether the tier should be
// held back from colocation so Balance can pair it with high-bandwidth
// VMs. A tier is held back when (a) its per-VM demand is at or below the
// average per-slot available bandwidth of st's children and (b) at least
// one high-bandwidth tier with remaining VMs cannot achieve colocation
// savings here (size/HA constraints), so it will need low-bandwidth
// partners to balance utilization (Fig. 6).
func (r *run) lowBandwidthExclusions(st topology.NodeID, quota []int) []bool {
	excluded := r.exclScratch
	for i := range excluded {
		excluded[i] = false
	}
	perSlot := r.availPerSlot(st)
	if perSlot <= 0 {
		return excluded
	}

	low := r.lowScratch
	for i := range low {
		low[i] = false
	}
	anyHigh := false
	for t, q := range quota {
		if q == 0 {
			continue
		}
		d := (r.perVMOut[t] + r.perVMIn[t]) / 2
		if d <= perSlot {
			low[t] = true
		} else {
			anyHigh = true
		}
	}
	if !anyHigh {
		return excluded
	}

	// One children pass prices every tier's best achievable inside count
	// up front; the per-tier saving checks below then read the table
	// instead of re-scanning children per (tier, edge) pair.
	maxIn := r.fillMaxInside(st, quota)
	anyStrandedHigh := false
	for t, q := range quota {
		if q == 0 || low[t] {
			continue
		}
		if !r.tierCanSave(t, maxIn) {
			anyStrandedHigh = true
			break
		}
	}
	if !anyStrandedHigh {
		return excluded
	}
	copy(excluded, low)
	return excluded
}

// fillMaxInside computes, for every tier, the largest inside count any
// single child of st could reach — current VMs plus the quota capped by
// free slots and the Eq. 7 HA bound — in one pass over the children.
// Entries match the per-tier scans tierCanSave used to run, value for
// value.
func (r *run) fillMaxInside(st topology.NodeID, quota []int) []int {
	tree := r.p.tree
	maxIn := r.maxInScratch
	for i := range maxIn {
		maxIn[i] = 0
	}
	for _, c := range tree.Children(st) {
		freeC := tree.SlotsFree(c)
		bounded := r.ha.Guaranteed() && tree.Level(c) <= r.laa()
		var dom topology.NodeID
		if bounded {
			dom = tree.Ancestor(c, r.laa())
		}
		for t := range maxIn {
			hb := int(math.MaxInt32)
			if bounded {
				hb = r.haCap[t] - r.tx.CountOf(dom, t)
			}
			in := r.tx.CountOf(c, t) + min(quota[t], freeC, hb)
			if in > maxIn[t] {
				maxIn[t] = in
			}
		}
	}
	return maxIn
}

// tierCanSave reports whether tier t could pass the §4.2 size/HA saving
// conditions in some child of the subtree whose per-tier achievable
// inside counts are tabulated in maxIn, via any of t's incident edges.
func (r *run) tierCanSave(t int, maxIn []int) bool {
	for _, e := range r.g.Edges() {
		switch {
		case e.SelfLoop() && e.From == t:
			if tag.HoseSavingFeasible(r.sizes[t], maxIn[t]) {
				return true
			}
		case e.From == t || e.To == t:
			other := e.From
			if other == t {
				other = e.To
			}
			if e.From == t && tag.TrunkSavingFeasible(r.sizes[t], r.sizes[other], maxIn[t], maxIn[other]) {
				return true
			}
			if e.To == t && tag.TrunkSavingFeasible(r.sizes[other], r.sizes[t], maxIn[other], maxIn[t]) {
				return true
			}
		}
	}
	return false
}

// availPerSlot returns the average available uplink bandwidth per free
// slot under st's children (st's own uplink when st is a server).
func (r *run) availPerSlot(st topology.NodeID) float64 {
	tree := r.p.tree
	var bw float64
	var slots int
	if tree.IsServer(st) {
		o, i := tree.UplinkAvail(st)
		bw = (o + i) / 2
		slots = tree.SlotsFree(st)
	} else {
		for _, c := range tree.Children(st) {
			o, i := tree.UplinkAvail(c)
			bw += (o + i) / 2
			slots += tree.SlotsFree(c)
		}
	}
	if slots == 0 {
		return 0
	}
	return bw / float64(slots)
}

// failSet tracks the (typically zero or few) children a packing loop has
// given up on. The loops test every candidate child against it, so a
// linear scan over a handful of IDs beats hashing each lookup — and the
// zero value allocates nothing on the common all-children-succeed path.
type failSet []topology.NodeID

func (f failSet) has(n topology.NodeID) bool {
	for _, x := range f {
		if x == n {
			return true
		}
	}
	return false
}
