package place

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// dirtySpec is a three-level tree tight enough that syncs fail: 16
// servers of 8 slots.
func dirtySpec() topology.Spec {
	return topology.Spec{
		SlotsPerServer: 8,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 900},
			{Name: "tor", Fanout: 2, Uplink: 1400},
			{Name: "agg", Fanout: 2, Uplink: 1100},
		},
	}
}

// dirtyGraph has non-representable rates, so reserve-then-release leaves
// float residue a sloppy revert would show.
func dirtyGraph() *tag.Graph {
	g := tag.New("dirty")
	a := g.AddTier("a", 12)
	b := g.AddTier("b", 9)
	c := g.AddTier("c", 7)
	ext := g.AddExternal("ext", 0)
	g.AddEdge(a, b, 70.1, 93.3)
	g.AddEdge(b, c, 41.7, 58.9)
	g.AddEdge(c, a, 12.3, 9.1)
	g.AddSelfLoop(b, 33.3)
	g.AddEdge(a, ext, 20.7, 20.7)
	g.AddEdge(ext, c, 15.1, 17.9)
	return g
}

// txnBits renders everything a sync can change: the tree's ledger, the
// transaction's own reservations and its Reserves counter.
func txnBits(tr *topology.Tree, tx *Txn) string {
	led := tr.ExportLedger()
	s := fmt.Sprintf("reserves=%d placed=%d", tx.Reserves(), tx.Placed())
	for n := range led.Out {
		s += fmt.Sprintf(" %d:%x/%x/%d:%x/%x", n,
			math.Float64bits(led.Out[n]), math.Float64bits(led.In[n]), led.Slots[n],
			math.Float64bits(tx.resOut[n]), math.Float64bits(tx.resIn[n]))
	}
	return s
}

// reservationBits renders a committed reservation.
func reservationBits(r *Reservation) string {
	nodes := make([]topology.NodeID, 0, len(r.reserved))
	for n := range r.reserved {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	s := fmt.Sprintf("total=%x", math.Float64bits(r.TotalReserved()))
	for _, n := range nodes {
		s += fmt.Sprintf(" %d:%x/%x", n, math.Float64bits(r.reserved[n][0]), math.Float64bits(r.reserved[n][1]))
	}
	servers := make([]topology.NodeID, 0, len(r.placement))
	for n := range r.placement {
		servers = append(servers, n)
	}
	slices.Sort(servers)
	for _, n := range servers {
		s += fmt.Sprintf(" %d=%v", n, r.placement[n])
	}
	return s
}

// TestDifferentialDirtySync: a transaction that syncs only its dirty nodes
// is indistinguishable from one that re-prices every touched node on
// every sync. The same random sequence of Place / Unplace / Sync /
// SyncPath / SyncBetween / SyncAll (many of them failing against
// background load) / SetModel / Commit+Reopen / ReleaseAll runs on two
// trees; the second transaction is forced fully dirty before every sync.
// After every step both ledgers, both transactions' reservations and
// their Reserves counters must agree bit for bit.
func TestDifferentialDirtySync(t *testing.T) {
	failures, reopens := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		trees := [2]*topology.Tree{topology.New(dirtySpec()), topology.New(dirtySpec())}
		small := dirtyGraph()
		big, err := small.WithTierSize(1, 14) // same tiers and rates, every cut re-priced
		if err != nil {
			t.Fatal(err)
		}
		models := [2]*tag.Graph{small, big}
		cur := 0
		// Background load, identical on both trees, so that some syncs fail.
		for n := topology.NodeID(1); int(n) < trees[0].NumNodes(); n++ {
			if rng.Intn(2) == 0 {
				out, in := rng.Float64()*0.8*trees[0].UplinkCap(n), rng.Float64()*0.8*trees[0].UplinkCap(n)
				for _, tr := range trees {
					if err := tr.Reserve(n, out, in); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		txs := [2]*Txn{NewTxn(trees[0], small), NewTxn(trees[1], small)}
		servers := trees[0].Servers()

		// both runs op on the dirty-tracking transaction and on the
		// fully-dirty reference, and demands the same outcome.
		both := func(step int, what string, op func(tx *Txn) error) {
			t.Helper()
			errDirty := op(txs[0])
			txs[1].markAllDirty()
			errFull := op(txs[1])
			if (errDirty == nil) != (errFull == nil) {
				t.Fatalf("seed %d step %d %s: dirty sync returned %v, full sync %v", seed, step, what, errDirty, errFull)
			}
			if errDirty != nil {
				failures++
			}
			if a, b := txnBits(trees[0], txs[0]), txnBits(trees[1], txs[1]); a != b {
				t.Fatalf("seed %d step %d %s: state diverged\ndirty: %s\nfull:  %s", seed, step, what, a, b)
			}
		}
		for step := 0; step < 400; step++ {
			server := servers[rng.Intn(len(servers))]
			tier := rng.Intn(3)
			switch op := rng.Intn(20); {
			case op < 6:
				room := min(small.TierSize(tier)-txs[0].PlacedOf(tier), trees[0].SlotsFree(server))
				if room <= 0 {
					continue
				}
				k := 1 + rng.Intn(room)
				both(step, "Place", func(tx *Txn) error { return tx.Place(server, tier, k) })
			case op < 9:
				have := txs[0].CountOf(server, tier)
				if have == 0 {
					continue
				}
				k := 1 + rng.Intn(have)
				both(step, "Unplace", func(tx *Txn) error { tx.Unplace(server, tier, k); return nil })
			case op < 13:
				n := topology.NodeID(rng.Intn(trees[0].NumNodes()))
				both(step, "Sync", func(tx *Txn) error { return tx.Sync(n) })
			case op < 15:
				both(step, "SyncPath", func(tx *Txn) error { return tx.SyncPath(server) })
			case op < 17:
				top := trees[0].Ancestor(server, rng.Intn(trees[0].Height()+1))
				both(step, "SyncBetween", func(tx *Txn) error { return tx.SyncBetween(server, top) })
			case op < 18:
				both(step, "SyncAll", func(tx *Txn) error { return tx.SyncAll() })
			case op < 19:
				cur = 1 - cur
				both(step, "SetModel", func(tx *Txn) error { tx.SetModel(models[cur]); return nil })
			default:
				if rng.Intn(3) == 0 {
					both(step, "ReleaseAll", func(tx *Txn) error { tx.ReleaseAll(); return nil })
					continue
				}
				// Commit needs reservations that match the counts.
				if txs[0].SyncAll() != nil {
					txs[1].markAllDirty()
					if txs[1].SyncAll() == nil {
						t.Fatalf("seed %d step %d: pre-commit SyncAll failed on the dirty side only", seed, step)
					}
					continue
				}
				txs[1].markAllDirty()
				if err := txs[1].SyncAll(); err != nil {
					t.Fatalf("seed %d step %d: pre-commit SyncAll failed on the full side only: %v", seed, step, err)
				}
				var res [2]*Reservation
				for i, tx := range txs {
					res[i] = tx.Commit()
				}
				if a, b := reservationBits(res[0]), reservationBits(res[1]); a != b {
					t.Fatalf("seed %d step %d: committed reservations differ\ndirty: %s\nfull:  %s", seed, step, a, b)
				}
				if rng.Intn(2) == 0 {
					cur = 1 - cur // reopen under the other model
				}
				for i := range txs {
					txs[i] = res[i].Reopen(models[cur])
				}
				reopens++
				both(step, "Reopen+Sync", func(tx *Txn) error { return tx.SyncAll() })
			}
		}
	}
	if failures < 100 || reopens < 20 {
		t.Errorf("%d failed syncs, %d reopens: the sequences do not exercise them", failures, reopens)
	}
}
