package topology

import (
	"fmt"
	"math"
)

// Incremental per-tier free-capacity index. The placers' feasibility
// scans (find the lowest subtree with enough slots, uplink headroom and
// resources) walk whole tree levels per request; at scale most of those
// visits are provably hopeless. The index maintains, per level, an
// UPPER BOUND on the best value any node of that level can offer —
// maximum free slots of any subtree, maximum residual uplink bandwidth
// per direction, maximum free declared-resource aggregate per
// dimension — so a placer can skip an entire level (or subtree) when
// even the bound cannot satisfy the request.
//
// Soundness contract (what keeps the fast path observationally
// identical to the rescan path): every bound is >= the true maximum at
// all times. Pruning only ever skips scans that could not have found a
// candidate, so admission decisions, grant traces, ledgers and
// rejection reasons are byte-identical with the index on or off — the
// property the differential harness in internal/place verifies.
//
// Maintenance is asymmetric, mirroring where the invariant could
// break:
//
//   - Increases (slot/bandwidth/resource releases, negative delta
//     entries) raise the touched level's bound to the new value in
//     O(1) — the only operations that can violate "bound >= max".
//   - Decreases (placements) leave bounds stale-high, which costs
//     pruning power but never correctness; a staleness counter triggers
//     an exact O(nodes) recompute once enough decreases accumulate.
//   - A wholesale overwrite (ImportLedger) rebuilds exactly, which is
//     how WAL recovery re-derives the index from the imported ledger
//     bits.
//   - Save/RestoreSnapshot need no per-value hooks: restored values are
//     <= the bounds captured at Save time, and rebuilds are suppressed
//     while a speculation bracket is open (frozen), so bounds cannot
//     tighten below a state that a rollback will restore.
type Index struct {
	// maxSlots[l] bounds the largest subtree free-slot aggregate of any
	// node at level l.
	maxSlots []int32
	// maxOut[l] and maxIn[l] bound the largest residual uplink
	// bandwidth (capacity minus reservation) of any node at level l,
	// per direction.
	maxOut, maxIn []float64
	// maxRes[d][l] bounds the largest free aggregate of declared
	// resource dimension d of any subtree rooted at level l; nil on
	// slot-only topologies.
	maxRes [][]float64
	// stale counts value decreases since the last exact rebuild; once
	// it passes limit the next Save tightens the bounds.
	stale, limit int
	// frozen suppresses rebuilds between Save and RestoreSnapshot, so
	// a byte-exact rollback can never land above a freshly tightened
	// bound.
	frozen bool
}

// buildIndex allocates and exactly computes the tree's index.
func (t *Tree) buildIndex() {
	levels := t.Height() + 1
	ix := &Index{
		maxSlots: make([]int32, levels),
		maxOut:   make([]float64, levels),
		maxIn:    make([]float64, levels),
		limit:    t.NumNodes(),
	}
	if t.res != nil {
		ix.maxRes = make([][]float64, len(t.res.free))
		for d := range ix.maxRes {
			ix.maxRes[d] = make([]float64, levels)
		}
	}
	t.idx = ix
	t.IndexRebuild()
}

// Indexed reports whether the tree maintains a free-capacity index.
func (t *Tree) Indexed() bool { return t.idx != nil }

// SetIndexed enables or disables the free-capacity index. Disabling
// restores the pure rescan behavior the differential harness compares
// against; enabling rebuilds the index exactly from the current ledger.
func (t *Tree) SetIndexed(on bool) {
	switch {
	case on && t.idx == nil:
		t.buildIndex()
	case !on:
		t.idx = nil
	}
}

// IndexRebuild recomputes every bound exactly from the current ledger
// and resets the staleness counter. A no-op on unindexed trees.
func (t *Tree) IndexRebuild() {
	ix := t.idx
	if ix == nil {
		return
	}
	for l, nodes := range t.nodesByLevel {
		var ms int32
		mo, mi := math.Inf(-1), math.Inf(-1)
		for _, n := range nodes {
			if t.slotsFree[n] > ms {
				ms = t.slotsFree[n]
			}
			if o := t.upCap[n] - t.upResOut[n]; o > mo {
				mo = o
			}
			if i := t.upCap[n] - t.upResIn[n]; i > mi {
				mi = i
			}
		}
		ix.maxSlots[l], ix.maxOut[l], ix.maxIn[l] = ms, mo, mi
		for d := range ix.maxRes {
			var mr float64
			for _, n := range nodes {
				if f := t.res.free[d][n]; f > mr {
					mr = f
				}
			}
			ix.maxRes[d][l] = mr
		}
	}
	ix.stale = 0
}

// LevelMayHost reports whether some node at level lvl might satisfy a
// request needing vms free slots in its subtree, extOut/extIn residual
// bandwidth on every uplink from the node to the root, and need (a
// total per-dimension resource vector, may be nil) free in its subtree.
// A false return is a proof: no node at the level passes the placers'
// own per-candidate checks. On unindexed trees it returns true, which
// degrades to the full rescan.
func (t *Tree) LevelMayHost(lvl, vms int, extOut, extIn float64, need []float64) bool {
	ix := t.idx
	if ix == nil {
		return true
	}
	if int32(vms) > ix.maxSlots[lvl] {
		return false
	}
	if extOut > 0 || extIn > 0 {
		// A candidate at lvl needs headroom on its own uplink and on
		// every ancestor uplink below the root; if any of those levels
		// cannot offer the headroom anywhere, no candidate survives.
		for j := lvl; j < t.Height(); j++ {
			if ix.maxOut[j]+capEpsilon < extOut || ix.maxIn[j]+capEpsilon < extIn {
				return false
			}
		}
	}
	for d, v := range need {
		if d >= len(ix.maxRes) {
			break
		}
		if v > 0 && v > ix.maxRes[d][lvl]+1e-9 {
			return false
		}
	}
	return true
}

// SubtreeMayHost reports whether the subtree rooted at n can possibly
// host vms VMs with the given total resource need, using the exact
// subtree aggregates. Because aggregates are sums over children, a
// failing subtree cannot contain a passing descendant, so walk-based
// placers use this to cut whole branches.
func (t *Tree) SubtreeMayHost(n NodeID, vms int, need []float64) bool {
	if int(t.slotsFree[n]) < vms {
		return false
	}
	if t.res == nil || need == nil {
		return true
	}
	for d, v := range need {
		if v > 0 && v > t.res.free[d][n]+1e-9 {
			return false
		}
	}
	return true
}

// IndexState is a comparable snapshot of the index bounds, used by the
// differential harness to check that an index rebuilt through WAL
// recovery matches a fresh build over the same ledger.
type IndexState struct {
	MaxSlots      []int32
	MaxOut, MaxIn []float64
	MaxRes        [][]float64
}

// IndexSnapshot returns a copy of the current bounds (nil when the tree
// is unindexed). Call IndexRebuild first to compare canonical states —
// raw bounds depend on operation history, rebuilt bounds are a pure
// function of the ledger.
func (t *Tree) IndexSnapshot() *IndexState {
	ix := t.idx
	if ix == nil {
		return nil
	}
	s := &IndexState{
		MaxSlots: append([]int32(nil), ix.maxSlots...),
		MaxOut:   append([]float64(nil), ix.maxOut...),
		MaxIn:    append([]float64(nil), ix.maxIn...),
	}
	if ix.maxRes != nil {
		s.MaxRes = make([][]float64, len(ix.maxRes))
		for d := range ix.maxRes {
			s.MaxRes[d] = append([]float64(nil), ix.maxRes[d]...)
		}
	}
	return s
}

// IndexAudit verifies the soundness invariant — every bound >= the true
// level maximum — and returns a descriptive error on the first
// violation. A no-op (nil) on unindexed trees.
func (t *Tree) IndexAudit() error {
	ix := t.idx
	if ix == nil {
		return nil
	}
	for l, nodes := range t.nodesByLevel {
		for _, n := range nodes {
			if t.slotsFree[n] > ix.maxSlots[l] {
				return fmt.Errorf("topology: index bound violated: level %d maxSlots %d < node %d free %d",
					l, ix.maxSlots[l], n, t.slotsFree[n])
			}
			if o := t.upCap[n] - t.upResOut[n]; o > ix.maxOut[l] {
				return fmt.Errorf("topology: index bound violated: level %d maxOut %g < node %d avail %g",
					l, ix.maxOut[l], n, o)
			}
			if i := t.upCap[n] - t.upResIn[n]; i > ix.maxIn[l] {
				return fmt.Errorf("topology: index bound violated: level %d maxIn %g < node %d avail %g",
					l, ix.maxIn[l], n, i)
			}
			for d := range ix.maxRes {
				if f := t.res.free[d][n]; f > ix.maxRes[d][l] {
					return fmt.Errorf("topology: index bound violated: level %d res %d bound %g < node %d free %g",
						l, d, ix.maxRes[d][l], n, f)
				}
			}
		}
	}
	return nil
}

// Raise hooks: O(1) bound maintenance on the value-increase paths.
// Callers guard on t.idx != nil.

func (t *Tree) idxRaiseSlots(n NodeID) {
	l := t.level[n]
	if f := t.slotsFree[n]; f > t.idx.maxSlots[l] {
		t.idx.maxSlots[l] = f
	}
}

func (t *Tree) idxRaiseLink(n NodeID) {
	l := t.level[n]
	if o := t.upCap[n] - t.upResOut[n]; o > t.idx.maxOut[l] {
		t.idx.maxOut[l] = o
	}
	if i := t.upCap[n] - t.upResIn[n]; i > t.idx.maxIn[l] {
		t.idx.maxIn[l] = i
	}
}

func (t *Tree) idxRaiseRes(n NodeID, dim int) {
	l := t.level[n]
	if f := t.res.free[dim][n]; f > t.idx.maxRes[dim][l] {
		t.idx.maxRes[dim][l] = f
	}
}

// idxSpeculate opens a speculation bracket: tighten now if due, then
// freeze rebuilds until the matching idxRollback so a byte-exact
// restore cannot land above the bounds.
func (t *Tree) idxSpeculate() {
	ix := t.idx
	if ix == nil {
		return
	}
	if !ix.frozen && ix.stale > ix.limit {
		t.IndexRebuild()
	}
	ix.frozen = true
}

// idxRollback closes the speculation bracket opened by idxSpeculate.
// The restored values are bounded by the bounds at Save time, which
// could only have been raised since, so no raising is needed here.
func (t *Tree) idxRollback() {
	if t.idx != nil {
		t.idx.frozen = false
	}
}
