package topology

import (
	"math"
	"reflect"
	"testing"
)

// smallRes builds the small test tree with two resource dimensions, so
// delta tests cover the resource ledger too.
func smallRes() *Tree {
	return New(Spec{
		SlotsPerServer: 4,
		Levels: []LevelSpec{
			{Name: "server", Fanout: 3, Uplink: 100},
			{Name: "tor", Fanout: 2, Uplink: 150},
		},
		Resources: []ResourceSpec{{Name: "cpu", PerServer: 16}, {Name: "mem", PerServer: 64}},
	})
}

// mutableState snapshots every mutable accumulator of a tree for
// byte-exact comparison (float bits, not approximate equality).
func mutableState(t *Tree) [][]uint64 {
	var st [][]uint64
	row := make([]uint64, 0, t.NumNodes())
	for _, v := range t.slotsFree {
		row = append(row, uint64(uint32(v)))
	}
	st = append(st, row)
	for _, arr := range [][]float64{t.upResOut, t.upResIn} {
		row = make([]uint64, 0, len(arr))
		for _, v := range arr {
			row = append(row, math.Float64bits(v))
		}
		st = append(st, row)
	}
	if t.res != nil {
		for _, arr := range t.res.free {
			row = make([]uint64, 0, len(arr))
			for _, v := range arr {
				row = append(row, math.Float64bits(v))
			}
			st = append(st, row)
		}
	}
	return st
}

// TestDeltaApplyMatchesIncremental: applying a delta reaches the same
// state as the equivalent UseSlots/Reserve/UseResources calls, so the
// delta path and the incremental path agree on semantics.
func TestDeltaApplyMatchesIncremental(t *testing.T) {
	a, b := smallRes(), smallRes()
	s0, s1 := a.Servers()[0], a.Servers()[4]
	d := Delta{
		Slots:     []SlotDelta{{s0, 3}, {s1, 2}},
		Links:     []LinkDelta{{s0, 40, 10}, {s1, 5, 5}, {a.Parent(s0), 40, 10}},
		Resources: []ResourceDelta{{s0, []float64{3, 6}}, {s1, []float64{2, 4}}},
	}
	a.Apply(d)

	if err := b.UseResources(s0, 3, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.UseResources(s1, 2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.UseSlots(s0, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.UseSlots(s1, 2); err != nil {
		t.Fatal(err)
	}
	for _, lk := range d.Links {
		if err := b.Reserve(lk.Node, lk.Out, lk.In); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(mutableState(a), mutableState(b)) {
		t.Error("delta apply and incremental ops diverge")
	}

	// Departure: negated delta returns the tree to pristine (integers
	// exact; these floats have no accumulated rounding either).
	a.Apply(d.Negate())
	if !reflect.DeepEqual(mutableState(a), mutableState(smallRes())) {
		t.Error("negated delta did not drain the tree")
	}
}

// TestSnapshotRestoreByteExact: a Save/RestoreSnapshot bracket around
// arbitrary incremental mutation — the Admitter's rollback of a
// placer's attempt — restores every accumulator's bits.
func TestSnapshotRestoreByteExact(t *testing.T) {
	tr := smallRes()
	s := tr.Servers()[0]
	tr.Apply(Delta{Slots: []SlotDelta{{s, 2}}, Links: []LinkDelta{{s, 30.1, 30.3}},
		Resources: []ResourceDelta{{s, []float64{2, 4}}}})
	before := mutableState(tr)
	snap := tr.NewSnapshot()
	tr.Save(snap)
	if err := tr.UseSlots(s, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.UseResources(s, 2, []float64{0.7, 1.3}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve(s, 49.9, 0.1); err != nil {
		t.Fatal(err)
	}
	tr.Release(s, 49.9, 0.1)
	tr.RestoreSnapshot(snap)
	if !reflect.DeepEqual(mutableState(tr), before) {
		t.Fatal("RestoreSnapshot was not byte-exact")
	}
}

// TestDeltaApplyPanics: over-release and non-server slot deltas panic
// exactly like the incremental release path.
func TestDeltaApplyPanics(t *testing.T) {
	for name, d := range map[string]Delta{
		"over-release": {Slots: []SlotDelta{{0, 0}}},
		"non-server":   {Slots: []SlotDelta{{0, 1}}},
	} {
		t.Run(name, func(t *testing.T) {
			tr := small()
			dd := d
			if name == "over-release" {
				dd = Delta{Slots: []SlotDelta{{tr.Servers()[0], -1}}}
			} else {
				dd = Delta{Slots: []SlotDelta{{tr.Root(), 1}}}
			}
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tr.Apply(dd)
		})
	}
}
