package topology

// Snapshot is a byte-exact copy of a tree's mutable ledger state (free
// slots, uplink reservations, free resources), used to roll back
// speculative placements without float residue. Buffers are allocated
// once and reused across Save/Restore cycles.
type Snapshot struct {
	out, in []float64
	slots   []int32
	res     [][]float64
}

// NewSnapshot allocates a snapshot sized for the tree.
func (t *Tree) NewSnapshot() *Snapshot {
	s := &Snapshot{
		out:   make([]float64, len(t.upResOut)),
		in:    make([]float64, len(t.upResIn)),
		slots: make([]int32, len(t.slotsFree)),
	}
	if t.res != nil {
		s.res = make([][]float64, len(t.res.free))
		for i := range s.res {
			s.res[i] = make([]float64, len(t.res.free[i]))
		}
	}
	return s
}

// Save copies the tree's mutable ledger state into the snapshot,
// byte-exactly.
func (t *Tree) Save(s *Snapshot) {
	copy(s.out, t.upResOut)
	copy(s.in, t.upResIn)
	copy(s.slots, t.slotsFree)
	for i := range s.res {
		copy(s.res[i], t.res.free[i])
	}
}

// RestoreSnapshot copies the snapshot back, restoring the exact bits
// the matching Save captured.
func (t *Tree) RestoreSnapshot(s *Snapshot) {
	copy(t.upResOut, s.out)
	copy(t.upResIn, s.in)
	copy(t.slotsFree, s.slots)
	for i := range s.res {
		copy(t.res.free[i], s.res[i])
	}
}
