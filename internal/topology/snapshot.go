package topology

// Snapshot is the undo journal of one Save/RestoreSnapshot bracket: the
// pre-bracket state (free slots, uplink reservations, free resources)
// of every node written inside the bracket, recorded on the node's
// first write. Restoring writes those nodes back, so a rollback costs
// what the bracket touched, not the size of the tree, and restores the
// exact bits without float residue. A snapshot's buffers are reused
// across brackets.
//
// A tree has at most one open bracket: Save while another bracket is
// open, RestoreSnapshot of a snapshot that is not the open one, and
// ImportLedger inside a bracket all panic, since each would otherwise
// restore a wrong ledger without an error.
type Snapshot struct {
	undo []undoEntry
	// res holds each entry's free resources, len(Resources()) values
	// per entry in entry order.
	res []float64
}

// undoEntry is one node's ledger state when the bracket first wrote it.
type undoEntry struct {
	n       NodeID
	slots   int32
	out, in float64
}

// NewSnapshot allocates a snapshot for the tree.
func (t *Tree) NewSnapshot() *Snapshot { return &Snapshot{} }

// Save opens a bracket on the tree, journaling into s. It costs O(1);
// each node's first write inside the bracket journals that node.
func (t *Tree) Save(s *Snapshot) {
	if t.bracket != nil {
		panic("topology: Save while a snapshot bracket is open on the tree")
	}
	s.undo, s.res = s.undo[:0], s.res[:0]
	t.bracket = s
}

// RestoreSnapshot closes the bracket s opened, writing back the exact
// bits the journaled nodes held at Save.
func (t *Tree) RestoreSnapshot(s *Snapshot) {
	if t.bracket != s {
		panic("topology: RestoreSnapshot of a snapshot whose bracket is not open on the tree")
	}
	dims := len(t.Resources())
	for i, u := range s.undo {
		t.slotsFree[u.n], t.upResOut[u.n], t.upResIn[u.n] = u.slots, u.out, u.in
		for r := 0; r < dims; r++ {
			t.res.free[r][u.n] = s.res[i*dims+r]
		}
		t.journaled[u.n] = false
	}
	t.bracket = nil
}

// note journals n before a ledger write when a bracket is open and n
// is not yet journaled. Every ledger mutator calls it.
func (t *Tree) note(n NodeID) {
	if t.bracket != nil && !t.journaled[n] {
		t.record(n)
	}
}

// record is note's slow path, kept out of line so note inlines.
//
//go:noinline
func (t *Tree) record(n NodeID) {
	s := t.bracket
	t.journaled[n] = true
	s.undo = append(s.undo, undoEntry{n: n, slots: t.slotsFree[n], out: t.upResOut[n], in: t.upResIn[n]})
	if t.res != nil {
		for _, f := range t.res.free {
			s.res = append(s.res, f[n])
		}
	}
}
