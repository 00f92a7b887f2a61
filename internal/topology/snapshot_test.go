package topology

import (
	"reflect"
	"testing"
)

// FuzzSnapshotJournal drives a resource-declaring tree through a
// fuzzer-chosen sequence of ledger mutations, brackets opening and
// closing along the way; after every RestoreSnapshot the ledger must
// equal, by Float64bits, the ExportLedger taken at the matching Save.
// Mutations between brackets run unjournaled and move the baseline.
//
// Each op reads four bytes: the op, a server or node, and two amounts.
func FuzzSnapshotJournal(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 3, 2, 0, 3, 4, 90, 7, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 0, 0, 0, 0, 0, 7, 5, 2, 9, 2, 5, 1, 0, 6, 1, 2, 3, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 200, 200, 0, 0, 0, 0, 4, 1, 17, 3, 5, 6, 2, 8, 7, 9, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := wideRes()
		sv := tr.Servers()
		snap := tr.NewSnapshot()
		var want [][]uint64
		closeBracket := func() {
			tr.RestoreSnapshot(snap)
			if got := mutableState(tr); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored ledger differs from the one exported at Save:\n got %v\nwant %v", got, want)
			}
		}
		for i := 0; i+4 <= len(ops); i += 4 {
			op, at := ops[i]%8, int(ops[i+1])
			a, b := float64(ops[i+2])*0.37, float64(ops[i+3])*1.13
			k := int(ops[i+2]) % 4
			s := sv[at%len(sv)]
			n := NodeID(at % tr.NumNodes())
			demand := []float64{a / 7, b / 5}
			switch op {
			case 0:
				if tr.bracket == nil {
					want = mutableState(tr)
					tr.Save(snap)
				} else {
					closeBracket()
				}
			case 1:
				_ = tr.UseSlots(s, k)
			case 2:
				if tr.SlotsFree(s)+k <= tr.SlotsTotal(s) {
					tr.ReleaseSlots(s, k)
				}
			case 3:
				_ = tr.Reserve(n, a, b)
			case 4:
				tr.Release(n, a, b)
			case 5:
				_ = tr.UseResources(s, k, demand)
			case 6:
				tr.ReleaseResources(s, k, demand)
			case 7:
				d := Delta{Links: []LinkDelta{{n, a, -b}}, Resources: []ResourceDelta{{s, demand}}}
				if k <= tr.SlotsFree(s) {
					d.Slots = []SlotDelta{{s, k}}
				}
				tr.Apply(d)
				if ops[i+3]%2 == 0 {
					tr.Apply(d.Negate())
				}
			}
		}
		if tr.bracket != nil {
			closeBracket()
		}
	})
}

// TestSnapshotMisusePanics: the misuses that would restore a wrong
// ledger without an error panic instead — a second bracket on a tree
// whose bracket is open, an ImportLedger inside a bracket, and a
// restore of a snapshot that is not the open one.
func TestSnapshotMisusePanics(t *testing.T) {
	for name, misuse := range map[string]func(tr *Tree, open, other *Snapshot){
		"save-while-open":   func(tr *Tree, _, other *Snapshot) { tr.Save(other) },
		"import-in-bracket": func(tr *Tree, _, _ *Snapshot) { _ = tr.ImportLedger(tr.ExportLedger()) },
		"restore-other":     func(tr *Tree, _, other *Snapshot) { tr.RestoreSnapshot(other) },
	} {
		t.Run(name, func(t *testing.T) {
			tr := smallRes()
			open, other := tr.NewSnapshot(), tr.NewSnapshot()
			tr.Save(open)
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			misuse(tr, open, other)
		})
	}
}
