package place

import (
	"cmp"
	"fmt"
	"slices"

	"cloudmirror/internal/topology"
)

// Txn is a transactional placement attempt for one tenant. It tracks the
// tenant's per-subtree VM counts, consumes VM slots immediately (so
// concurrent-in-algorithm decisions see true availability), and maintains
// bandwidth reservations that can be recomputed idempotently as VMs are
// placed or unplaced — the ReserveBW/Dealloc primitives of Algorithm 1.
//
// Either Commit is called, transferring ownership of all resources to the
// returned Reservation, or ReleaseAll, restoring the tree exactly.
//
// State is kept in dense per-node arrays rather than maps: a placer
// retries many candidate subtrees per admission through the same Txn
// (ReleaseAll between candidates), and the dense form makes that loop
// allocation-free after construction. It also makes sync's visit order
// deterministic (touch order, not map order).
type Txn struct {
	tree  *topology.Tree
	model Model
	tiers int

	// counts[n*tiers+t] is the tenant's tier-t VM count inside node n's
	// subtree, for every touched node (servers that host VMs and all
	// their ancestors). touched lists the nodes with hasCount set, in
	// first-touch order.
	counts   []int
	hasCount []bool
	touched  []topology.NodeID
	// dirty[n] is set when n's counts (or the model pricing them) may
	// have changed since n's reservation was last reconciled. A clean
	// node's reservation equals its desired cut bit for bit, so sync
	// never looks at it (see Sync): it walks dirtyQueue, the dirty
	// nodes in no particular order, and visits those in scope by pos,
	// their index in touched. work is sync's scratch.
	dirty      []bool
	dirtyQueue []topology.NodeID
	pos        []int32
	work       []topology.NodeID
	// resOut/resIn are the (out, in) bandwidth currently reserved on
	// each node's uplink by this transaction; resTouched lists the nodes
	// with hasRes set, in first-reservation order.
	resOut, resIn []float64
	hasRes        []bool
	resTouched    []topology.NodeID
	// mark/epoch select the node subset a SyncPath/SyncBetween call
	// reconciles without allocating a set per call.
	mark  []uint32
	epoch uint32
	// applied is sync's revert log, reused across calls.
	applied []delta
	// reserves counts the reservation changes sync has applied to the
	// tree over the transaction's lifetime (see Reserves).
	reserves uint64
	// resources holds the per-tier per-VM demand vectors (nil for
	// slot-only tenants).
	resources [][]float64
	placed    int
}

// NewTxn starts a placement transaction for the given model on the tree.
func NewTxn(tree *topology.Tree, model Model) *Txn {
	n := tree.NumNodes()
	tiers := model.Tiers()
	return &Txn{
		tree:     tree,
		model:    model,
		tiers:    tiers,
		counts:   make([]int, n*tiers),
		hasCount: make([]bool, n),
		dirty:    make([]bool, n),
		pos:      make([]int32, n),
		resOut:   make([]float64, n),
		resIn:    make([]float64, n),
		hasRes:   make([]bool, n),
		mark:     make([]uint32, n),
	}
}

// Reset re-arms a clean transaction (freshly constructed, fully
// released, or committed) for a new tenant on the given tree and model,
// reusing the dense scratch arrays. Placers cache one Txn per instance
// and Reset it each admission, which removes the dominant allocation on
// the plan path. Resetting a transaction that still holds placements or
// reservations is a bug and panics.
//
// Safety of the reuse: between transactions every element of every
// backing array is zero (ReleaseAll and Commit both restore that
// invariant), so reinterpreting counts under a different tier stride —
// or a different node count — cannot leak state across tenants.
func (tx *Txn) Reset(tree *topology.Tree, model Model) {
	if tx.placed != 0 || len(tx.touched) != 0 || len(tx.resTouched) != 0 {
		panic("place: Reset of a live transaction (Commit or ReleaseAll first)")
	}
	n := tree.NumNodes()
	tiers := model.Tiers()
	tx.tree, tx.model, tx.tiers = tree, model, tiers
	tx.counts = growInts(tx.counts, n*tiers)
	tx.hasCount = growBools(tx.hasCount, n)
	tx.dirty = growBools(tx.dirty, n)
	if cap(tx.pos) < n {
		tx.pos = make([]int32, n)
	}
	tx.pos = tx.pos[:n] // read only for touched nodes, which set it
	tx.resOut = growFloats(tx.resOut, n)
	tx.resIn = growFloats(tx.resIn, n)
	tx.hasRes = growBools(tx.hasRes, n)
	if cap(tx.mark) < n {
		tx.mark = make([]uint32, n)
		tx.epoch = 0
	} else {
		tx.mark = tx.mark[:n]
	}
	tx.resources = nil
}

// growInts returns s resized to length n. Elements stay all-zero: the
// slice only ever grows within a backing array whose tail was zeroed by
// the same invariant that lets Reset reuse it.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// SetModel swaps the bandwidth model mid-transaction. Reservations are
// reconciled against the new model on the next Sync. Auto-scaling uses
// this: a tier-size change alters every cut, so the resized tenant's
// graph replaces the original before re-synchronizing — and every
// touched node is marked dirty, since none of their reservations was
// priced by m.
func (tx *Txn) SetModel(m Model) {
	if m.Tiers() != tx.model.Tiers() {
		panic("place: SetModel with different tier count")
	}
	tx.model = m
	tx.markAllDirty()
}

// markAllDirty makes the next sync re-price every touched node.
func (tx *Txn) markAllDirty() {
	for _, n := range tx.touched {
		tx.markDirty(n)
	}
}

// markDirty queues n for the next sync whose scope covers it.
func (tx *Txn) markDirty(n topology.NodeID) {
	if !tx.dirty[n] {
		tx.dirty[n] = true
		tx.dirtyQueue = append(tx.dirtyQueue, n)
	}
}

// touch adds n to the touched nodes on its first count.
func (tx *Txn) touch(n topology.NodeID) {
	if !tx.hasCount[n] {
		tx.hasCount[n] = true
		tx.pos[n] = int32(len(tx.touched))
		tx.touched = append(tx.touched, n)
	}
}

// Tree returns the underlying topology.
func (tx *Txn) Tree() *topology.Tree { return tx.tree }

// Model returns the bandwidth model being placed.
func (tx *Txn) Model() Model { return tx.model }

// SetResources installs the per-tier per-VM demand vectors consumed by
// subsequent Place calls. Must be set before any placement.
func (tx *Txn) SetResources(res [][]float64) {
	if tx.placed > 0 {
		panic("place: SetResources after placements")
	}
	tx.resources = res
}

// tierDemand returns tier t's per-VM demand vector, nil when slot-only.
func (tx *Txn) tierDemand(t int) []float64 {
	if tx.resources == nil {
		return nil
	}
	return tx.resources[t]
}

// row returns node n's per-tier count row.
func (tx *Txn) row(n topology.NodeID) []int {
	return tx.counts[int(n)*tx.tiers : (int(n)+1)*tx.tiers : (int(n)+1)*tx.tiers]
}

// Place puts k VMs of tier t on the given server, consuming slots and
// declared resources. It does not touch bandwidth; call Sync afterwards.
func (tx *Txn) Place(server topology.NodeID, t, k int) error {
	if k == 0 {
		return nil
	}
	if err := tx.tree.UseResources(server, k, tx.tierDemand(t)); err != nil {
		return Reject("place", ReasonInsufficientResources, err)
	}
	if err := tx.tree.UseSlots(server, k); err != nil {
		tx.tree.ReleaseResources(server, k, tx.tierDemand(t))
		return Reject("place", ReasonNoSlots, err)
	}
	for n := server; n != topology.NoNode; n = tx.tree.Parent(n) {
		tx.touch(n)
		tx.markDirty(n)
		tx.row(n)[t] += k
	}
	tx.placed += k
	return nil
}

// Unplace removes k VMs of tier t from the given server, releasing their
// slots. Bandwidth reservations are corrected by the next Sync.
func (tx *Txn) Unplace(server topology.NodeID, t, k int) {
	if k == 0 {
		return
	}
	if !tx.hasCount[server] || tx.row(server)[t] < k {
		panic(fmt.Sprintf("place: Unplace(%d, tier %d, %d) exceeds placed count", server, t, k))
	}
	tx.tree.ReleaseSlots(server, k)
	tx.tree.ReleaseResources(server, k, tx.tierDemand(t))
	for n := server; n != topology.NoNode; n = tx.tree.Parent(n) {
		tx.markDirty(n)
		tx.row(n)[t] -= k
	}
	tx.placed -= k
}

// Count returns the tenant's per-tier counts inside node n's subtree
// (nil if the subtree holds none). The slice must not be modified.
func (tx *Txn) Count(n topology.NodeID) []int {
	if !tx.hasCount[n] {
		return nil
	}
	return tx.row(n)
}

// CountOf returns the tenant's count of tier t inside node n's subtree.
func (tx *Txn) CountOf(n topology.NodeID, t int) int {
	if !tx.hasCount[n] {
		return 0
	}
	return tx.row(n)[t]
}

// Placed returns the total number of VMs placed so far.
func (tx *Txn) Placed() int { return tx.placed }

// PlacedOf returns the number of tier-t VMs placed so far.
func (tx *Txn) PlacedOf(t int) int { return tx.CountOf(tx.tree.Root(), t) }

// desired returns the reservation node n's uplink needs given current
// counts: the model cut of its subtree. The root needs none (no uplink).
func (tx *Txn) desired(n topology.NodeID) (out, in float64) {
	if n == tx.tree.Root() || !tx.hasCount[n] {
		return 0, 0
	}
	return tx.model.Cut(tx.row(n))
}

// Sync reconciles bandwidth reservations with current VM counts for every
// touched node in the subtree rooted at n, including n's own uplink. It
// is idempotent. On failure (some uplink lacks capacity) every change
// made by this call is reverted and the error is returned; reservations
// from earlier successful Syncs remain.
//
// Sync (and SyncPath, SyncBetween, SyncAll) visits only dirty nodes —
// those whose counts a Place or Unplace moved, or whose model SetModel or
// Reopen replaced, since they were last reconciled. Skipping a clean node
// is not an approximation: its reservation was set to the cut of the
// counts and model it still has, the cut is a deterministic function of
// those, so desired − reserved is exactly (0, 0) and the node would have
// taken the no-op return anyway. The Reserve calls a sync issues, their
// order (first-touch order) and their arguments are therefore those of a
// sync that visits every touched node, and so is every bit of the ledger.
// A node is cleaned when sync finds or makes its reservation equal to
// its cut, and dirtied again if a later failure in the same call reverts
// that delta (the subtraction need not restore the old bits).
func (tx *Txn) Sync(n topology.NodeID) error {
	return tx.sync(scopeSubtree, n)
}

// SyncPath reconciles reservations on the nodes from n (inclusive) up to
// the root: the final "reserve bandwidth for map up to root" step of
// Algorithm 1.
func (tx *Txn) SyncPath(n topology.NodeID) error {
	tx.epoch++
	for m := n; m != topology.NoNode; m = tx.tree.Parent(m) {
		tx.mark[m] = tx.epoch
	}
	return tx.sync(scopeMarked, topology.NoNode)
}

// SyncAll reconciles every touched node (subtree + path): used after bulk
// placements when the caller does not track a frontier.
func (tx *Txn) SyncAll() error {
	return tx.sync(scopeAll, topology.NoNode)
}

// SyncBetween reconciles reservations on the nodes from n (inclusive) up
// to and including top. Callers that placed a single VM use it to touch
// only the path whose counts changed.
func (tx *Txn) SyncBetween(n, top topology.NodeID) error {
	tx.epoch++
	for m := n; m != topology.NoNode; m = tx.tree.Parent(m) {
		tx.mark[m] = tx.epoch
		if m == top {
			break
		}
	}
	return tx.sync(scopeMarked, topology.NoNode)
}

// Reserves returns how many reservation changes this transaction has
// applied to the tree so far, counting those a failed sync applied and
// then reverted. While it stands still, no uplink accumulator has been
// written through this transaction — which a caller cannot conclude
// from the reservations being equal, because reserving and releasing
// the same amount need not restore an accumulator's bits.
func (tx *Txn) Reserves() uint64 { return tx.reserves }

type delta struct {
	node    topology.NodeID
	out, in float64
}

// syncScope selects the nodes one sync call reconciles.
type syncScope uint8

const (
	scopeAll     syncScope = iota // every touched node
	scopeSubtree                  // the subtree of the given node
	scopeMarked                   // nodes stamped with the current epoch
)

// sync reconciles the dirty nodes in scope, in touch order (so the walk
// is deterministic, and the one a sync over every touched node would
// take). Every node holding a reservation is a touched node: syncNode
// reserves only here, and a node leaves touched only together with its
// reservation (ReleaseAll, Commit).
func (tx *Txn) sync(scope syncScope, sub topology.NodeID) error {
	tx.applied = tx.applied[:0]
	work := tx.work[:0]
	for _, n := range tx.dirtyQueue {
		switch scope {
		case scopeSubtree:
			if !tx.tree.Contains(sub, n) {
				continue
			}
		case scopeMarked:
			if tx.mark[n] != tx.epoch {
				continue
			}
		}
		work = append(work, n)
	}
	tx.work = work
	if len(work) == 0 {
		return nil
	}
	slices.SortFunc(work, func(a, b topology.NodeID) int { return cmp.Compare(tx.pos[a], tx.pos[b]) })
	var err error
	for _, n := range work {
		if err = tx.syncNode(n); err != nil {
			break
		}
		tx.dirty[n] = false
	}
	// Drop what was cleaned from the queue; a failure has re-dirtied the
	// nodes it reverted, which are still in it.
	queue := tx.dirtyQueue[:0]
	for _, n := range tx.dirtyQueue {
		if tx.dirty[n] {
			queue = append(queue, n)
		}
	}
	tx.dirtyQueue = queue
	return err
}

// syncNode reconciles one node's reservation with its desired cut,
// reverting this sync call's prior deltas on failure.
func (tx *Txn) syncNode(n topology.NodeID) error {
	wantOut, wantIn := tx.desired(n)
	dOut, dIn := wantOut-tx.resOut[n], wantIn-tx.resIn[n]
	if dOut == 0 && dIn == 0 {
		return nil
	}
	if err := tx.tree.Reserve(n, dOut, dIn); err != nil {
		// Revert the deltas applied so far in this call.
		for _, d := range tx.applied {
			tx.tree.Release(d.node, d.out, d.in)
			tx.resOut[d.node] -= d.out
			tx.resIn[d.node] -= d.in
			tx.dirty[d.node] = true
		}
		return Reject("reserve", ReasonInsufficientBandwidth, err)
	}
	tx.reserves++
	tx.applied = append(tx.applied, delta{n, dOut, dIn})
	tx.resOut[n], tx.resIn[n] = wantOut, wantIn
	if !tx.hasRes[n] {
		tx.hasRes[n] = true
		tx.resTouched = append(tx.resTouched, n)
	}
	return nil
}

// ReleaseAll rolls the transaction back completely: all bandwidth
// reservations are released and all placed VMs unplaced. The transaction
// is reusable afterwards (placers retry candidate subtrees through it).
func (tx *Txn) ReleaseAll() {
	for _, n := range tx.resTouched {
		tx.tree.Release(n, tx.resOut[n], tx.resIn[n])
		tx.resOut[n], tx.resIn[n] = 0, 0
		tx.hasRes[n] = false
	}
	tx.resTouched = tx.resTouched[:0]
	for _, n := range tx.touched {
		c := tx.row(n)
		if tx.tree.IsServer(n) {
			total := 0
			for t, k := range c {
				total += k
				if k > 0 {
					tx.tree.ReleaseResources(n, k, tx.tierDemand(t))
				}
			}
			if total > 0 {
				tx.tree.ReleaseSlots(n, total)
			}
		}
		for t := range c {
			c[t] = 0
		}
		tx.hasCount[n] = false
		tx.dirty[n] = false
	}
	tx.touched = tx.touched[:0]
	tx.dirtyQueue = tx.dirtyQueue[:0]
	tx.placed = 0
}

// Commit finalizes the transaction, returning a Reservation that owns the
// slots and bandwidth. The transaction itself is left clean — every
// scratch array back to all-zero — so a cached Txn can be Reset for the
// next tenant without reallocating.
func (tx *Txn) Commit() *Reservation {
	pl := make(Placement)
	for _, n := range tx.touched {
		if tx.tree.IsServer(n) {
			pl[n] = append([]int(nil), tx.row(n)...)
		}
	}
	reserved := make(map[topology.NodeID][2]float64, len(tx.resTouched))
	for _, n := range tx.resTouched {
		reserved[n] = [2]float64{tx.resOut[n], tx.resIn[n]}
	}
	res := &Reservation{
		tree:      tx.tree,
		placement: pl,
		reserved:  reserved,
		resources: tx.resources,
		ownsSlots: true,
	}
	// Ownership of slots, reservations, and the resources reference moved
	// to the Reservation; restore the all-zero scratch invariant without
	// touching the tree.
	for _, n := range tx.touched {
		c := tx.row(n)
		for t := range c {
			c[t] = 0
		}
		tx.hasCount[n] = false
		tx.dirty[n] = false
	}
	tx.touched = tx.touched[:0]
	tx.dirtyQueue = tx.dirtyQueue[:0]
	for _, n := range tx.resTouched {
		tx.resOut[n], tx.resIn[n] = 0, 0
		tx.hasRes[n] = false
	}
	tx.resTouched = tx.resTouched[:0]
	tx.placed = 0
	tx.resources = nil
	return res
}
