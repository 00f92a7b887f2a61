package topology

import (
	"errors"
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

// mutableState renders every mutable accumulator of a tree, as
// ExportLedger copies them, for byte-exact comparison: float64s by
// Float64bits, so -0 and 0 differ and residue in the last bit shows.
func mutableState(t *Tree) [][]uint64 {
	l := t.ExportLedger()
	st := [][]uint64{make([]uint64, 0, len(l.Slots))}
	for _, v := range l.Slots {
		st[0] = append(st[0], uint64(uint32(v)))
	}
	for _, arr := range append([][]float64{l.Out, l.In}, l.Res...) {
		row := make([]uint64, 0, len(arr))
		for _, v := range arr {
			row = append(row, math.Float64bits(v))
		}
		st = append(st, row)
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

// wideRes builds a two-rack tree with two resource dimensions, wide
// enough that each ledger mutator can be the first writer of a node of
// its own inside one snapshot bracket.
func wideRes() *Tree {
	return New(Spec{
		SlotsPerServer: 4,
		Levels: []LevelSpec{
			{Name: "server", Fanout: 8, Uplink: 100},
			{Name: "tor", Fanout: 2, Uplink: 150},
		},
		Resources: []ResourceSpec{{Name: "cpu", PerServer: 16}, {Name: "mem", PerServer: 64}},
	})
}

// TestSnapshotRestoreByteExact: a Save/RestoreSnapshot bracket around
// arbitrary incremental mutation — the Admitter's rollback of a
// placer's attempt — restores every accumulator's bits. Inside one
// bracket every ledger mutator is the first to write some node (each
// server below is touched by one step only), so a mutator that skips
// the journal leaves a node unrestored and fails the test. Two
// brackets back to back on one Snapshot and an empty bracket restore
// too.
func TestSnapshotRestoreByteExact(t *testing.T) {
	tr := wideRes()
	sv := tr.Servers()
	var pre Delta
	for _, s := range sv {
		pre.Slots = append(pre.Slots, SlotDelta{s, 2})
		pre.Links = append(pre.Links, LinkDelta{s, 30.1, 30.3})
		pre.Resources = append(pre.Resources, ResourceDelta{s, []float64{2.2, 4.7}})
	}
	pre.Links = append(pre.Links, LinkDelta{tr.Parent(sv[0]), 70.7, 0.9}, LinkDelta{tr.Parent(sv[8]), 1.3, 20.1})
	tr.Apply(pre)
	before := mutableState(tr)
	snap := tr.NewSnapshot()

	tr.Save(snap)
	// Amounts large against the ledger's, so that d then d.Negate()
	// leaves float residue on the nodes they touch.
	d := Delta{
		Slots:     []SlotDelta{{sv[0], 1}},
		Links:     []LinkDelta{{sv[1], 333.3, 777.7}},
		Resources: []ResourceDelta{{sv[2], []float64{333.3, 777.7}}},
	}
	tr.Apply(d)
	tr.Apply(d.Negate())
	if err := tr.Reserve(sv[3], 49.9, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve(sv[4], 1000, 0); !errors.Is(err, ErrNoBandwidth) {
		t.Fatalf("Reserve over capacity = %v, want ErrNoBandwidth", err)
	}
	tr.Release(sv[4], 10.3, 0.2)
	if err := tr.UseSlots(sv[5], 2); err != nil {
		t.Fatal(err)
	}
	tr.ReleaseSlots(sv[6], 1)
	if err := tr.UseResources(sv[7], 2, []float64{0.7, 1.3}); err != nil {
		t.Fatal(err)
	}
	tr.ReleaseResources(sv[8], 1, []float64{1.1, 0.3})
	if reflect.DeepEqual(mutableState(tr), before) {
		t.Fatal("the bracket's mutations left the ledger unchanged")
	}
	tr.RestoreSnapshot(snap)
	if !reflect.DeepEqual(mutableState(tr), before) {
		t.Fatal("RestoreSnapshot was not byte-exact")
	}

	// A second bracket on the same snapshot journals afresh: nodes the
	// first one restored are journaled again on their first write.
	tr.Save(snap)
	if err := tr.UseSlots(sv[5], 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve(sv[3], 0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	tr.RestoreSnapshot(snap)
	if !reflect.DeepEqual(mutableState(tr), before) {
		t.Fatal("second bracket on one snapshot was not byte-exact")
	}

	tr.Save(snap)
	tr.RestoreSnapshot(snap)
	if !reflect.DeepEqual(mutableState(tr), before) {
		t.Fatal("empty bracket changed the ledger")
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
