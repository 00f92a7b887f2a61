package topology

import "fmt"

// Ledger export/import: the durability layer persists a tree's mutable
// state byte-exactly. Snapshots cannot be reconstructed by re-applying
// the live tenants' deltas — departed tenants leave float residue in
// the reservation accumulators (+a +b -a is not bitwise b), so the only
// faithful snapshot of a ledger is the ledger's own bits. Import places
// those bits back verbatim, after which replaying the delta suffix
// through the ordinary Apply path reproduces the crashed tree exactly
// (the bit-exactness contract of the delta layer).

// Ledger is a byte-exact copy of a tree's mutable ledger state in a
// serializable form: uplink reservations per direction, free-slot
// aggregates, and free declared-resource aggregates. All slices are
// indexed by NodeID; Res is indexed by resource dimension first. The
// float64 values survive JSON round-trips exactly (encoding/json emits
// the shortest representation that parses back to the same bits).
type Ledger struct {
	// Out and In are the per-node uplink reservations toward and from
	// the root.
	Out []float64 `json:"out"`
	In  []float64 `json:"in"`
	// Slots is the per-node free-slot aggregate.
	Slots []int32 `json:"slots"`
	// Res is the per-dimension per-node free-resource aggregate; empty
	// on slot-only topologies.
	Res [][]float64 `json:"res,omitempty"`
}

// ExportLedger copies the tree's mutable ledger state out byte-exactly.
// The returned slices are the caller's to keep.
func (t *Tree) ExportLedger() Ledger {
	l := Ledger{
		Out:   append([]float64(nil), t.upResOut...),
		In:    append([]float64(nil), t.upResIn...),
		Slots: append([]int32(nil), t.slotsFree...),
	}
	if t.res != nil {
		l.Res = make([][]float64, len(t.res.free))
		for r, f := range t.res.free {
			l.Res[r] = append([]float64(nil), f...)
		}
	}
	return l
}

// ImportLedger overwrites the tree's mutable ledger state with a
// previously exported one. The tree must have been built from the same
// Spec as the exporter (identical shape); mismatched dimensions fail
// without changing anything. It panics inside a Save/RestoreSnapshot
// bracket, whose journal it would bypass.
func (t *Tree) ImportLedger(l Ledger) error {
	if t.bracket != nil {
		panic("topology: ImportLedger inside a snapshot bracket")
	}
	if len(l.Out) != len(t.upResOut) || len(l.In) != len(t.upResIn) || len(l.Slots) != len(t.slotsFree) {
		return fmt.Errorf("topology: ledger sized for %d nodes, tree has %d", len(l.Slots), len(t.slotsFree))
	}
	wantDims := 0
	if t.res != nil {
		wantDims = len(t.res.free)
	}
	if len(l.Res) != wantDims {
		return fmt.Errorf("topology: ledger has %d resource dimensions, tree has %d", len(l.Res), wantDims)
	}
	for r := range l.Res {
		if len(l.Res[r]) != t.NumNodes() {
			return fmt.Errorf("topology: ledger resource %d sized for %d nodes, tree has %d",
				r, len(l.Res[r]), t.NumNodes())
		}
	}
	copy(t.upResOut, l.Out)
	copy(t.upResIn, l.In)
	copy(t.slotsFree, l.Slots)
	for r := range l.Res {
		copy(t.res.free[r], l.Res[r])
	}
	return nil
}
