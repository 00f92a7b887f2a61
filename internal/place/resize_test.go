package place

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// fitResizer extends the test placer with first-fit incremental
// resizing, so the admitter-level Resize machinery is exercised without
// importing an algorithm package (they import place).
type fitResizer struct {
	firstFit
}

func (p *fitResizer) Resize(res *Reservation, oldG, newG *tag.Graph, tier int, ha HASpec) (*Reservation, error) {
	oldN, newN := oldG.TierSize(tier), newG.TierSize(tier)
	tx := res.Reopen(newG)
	servers := p.tree.Servers()
	switch {
	case newN == oldN:
		return tx.Commit(), nil
	case newN < oldN:
		d := oldN - newN
		for i := len(servers) - 1; i >= 0 && d > 0; i-- {
			k := tx.CountOf(servers[i], tier)
			if k > d {
				k = d
			}
			if k > 0 {
				tx.Unplace(servers[i], tier, k)
				d -= k
			}
		}
		if err := tx.SyncAll(); err != nil {
			return nil, err
		}
		return tx.Commit(), nil
	default:
		d := newN - oldN
		for _, s := range servers {
			if d == 0 {
				break
			}
			k := p.tree.SlotsFree(s)
			if k > d {
				k = d
			}
			if k == 0 {
				continue
			}
			if err := tx.Place(s, tier, k); err != nil {
				return nil, err
			}
			d -= k
		}
		if d > 0 {
			return nil, Rejectf("resize", ReasonNoSlots, "out of slots growing tier %d", tier)
		}
		if err := tx.SyncAll(); err != nil {
			return nil, err
		}
		return tx.Commit(), nil
	}
}

// resizeGraph builds a two-tier tenant with fixed per-VM guarantees.
func resizeGraph(a, b int) *tag.Graph {
	g := tag.New("resizable")
	ta := g.AddTier("a", a)
	tb := g.AddTier("b", b)
	g.AddBidirectional(ta, tb, 100, 50)
	return g
}

// resizeSpec is a small tree for resize tests: 8 servers × 4 slots.
func resizeSpec() topology.Spec {
	return topology.Spec{
		SlotsPerServer: 4,
		Levels: []topology.LevelSpec{
			{Name: "server", Fanout: 4, Uplink: 10_000},
			{Name: "tor", Fanout: 2, Uplink: 20_000},
		},
	}
}

// resizeAdmitter builds an admitter over a fresh resize tree whose
// placer supports Resize.
func resizeAdmitter() (*Admitter, *topology.Tree) {
	tr := topology.New(resizeSpec())
	return NewAdmitter(tr, &fitResizer{firstFit{tree: tr}}), tr
}

// reservedProfile summarizes a tree's ledger for byte-equality checks:
// free slots per server and reserved bandwidth per node.
func reservedProfile(t *topology.Tree) string {
	s := ""
	for _, n := range t.Servers() {
		s += fmt.Sprintf("s%d:%d ", n, t.SlotsFree(n))
	}
	for l := 0; l < t.Height(); l++ {
		s += fmt.Sprintf("L%d:%x ", l, t.LevelReserved(l))
	}
	return s
}

// TestGrantResizeGrowShrink drives a multi-tier grow and a shrink
// through the admitter and checks they are fully reversible.
func TestGrantResizeGrowShrink(t *testing.T) {
	adm, tr := resizeAdmitter()
	idle := reservedProfile(tr)

	g0 := resizeGraph(4, 2)
	grant, _, err := adm.Place(&Request{ID: 1, Graph: g0, Model: g0})
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 6 {
		t.Fatalf("placed %d VMs, want 6", got)
	}

	grown := resizeGraph(8, 3) // two tiers change in one call
	if ev, err := grant.Resize(grown); err != nil || ev.Kind != EventResized {
		t.Fatalf("grow: event %s, %v", ev.Kind, err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 11 {
		t.Errorf("after grow placed %d VMs, want 11", got)
	}

	shrunk := resizeGraph(2, 1)
	if ev, err := grant.Resize(shrunk); err != nil || ev.Kind != EventResized {
		t.Fatalf("shrink: event %s, %v", ev.Kind, err)
	}
	if got := grant.Reservation().Placement().VMs(); got != 3 {
		t.Errorf("after shrink placed %d VMs, want 3", got)
	}
	// Keeping every tier size commits nothing.
	before := grant.Reservation()
	if ev, err := grant.Resize(resizeGraph(2, 1)); err != nil || ev.Kind != 0 {
		t.Errorf("zero-step resize: event %s, %v; want none, nil", ev.Kind, err)
	}
	if grant.Reservation() != before {
		t.Error("zero-step resize swapped the reservation")
	}
	grant.Release()

	if got := reservedProfile(tr); got != idle {
		t.Errorf("ledger not clean after release:\n got %s\nwant %s", got, idle)
	}
}

// TestResizeTypedReasons checks the rejection taxonomy on the resize
// path: unsupported placers, structural changes, released grants, and
// capacity failures all carry their machine-readable Reason, and
// failures leave the ledger untouched.
func TestResizeTypedReasons(t *testing.T) {
	// A placer without Resize support rejects with ReasonUnsupported.
	tree := topology.New(resizeSpec())
	plain := NewAdmitter(tree, &firstFit{tree: tree})
	g := resizeGraph(2, 1)
	grant, _, err := plain.Place(&Request{ID: 1, Graph: g, Model: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grant.Resize(resizeGraph(3, 1)); ReasonOf(err) != ReasonUnsupported {
		t.Errorf("resize on non-resizer: reason %q, want %q", ReasonOf(err), ReasonUnsupported)
	}
	grant.Release()

	adm, tr := resizeAdmitter()
	grant, _, err = adm.Place(&Request{ID: 1, Graph: g, Model: g})
	if err != nil {
		t.Fatal(err)
	}

	// Structural change: different edge guarantees.
	bad := tag.New("resizable")
	a := bad.AddTier("a", 2)
	b := bad.AddTier("b", 1)
	bad.AddBidirectional(a, b, 999, 50)
	if _, err := grant.Resize(bad); ReasonOf(err) != ReasonInvalidRequest {
		t.Errorf("structural change: reason %q, want %q", ReasonOf(err), ReasonInvalidRequest)
	}

	// Capacity: growing past the tree must reject, wrap ErrRejected for
	// back-compat, and leave the ledger exactly as it was.
	before := reservedProfile(tr)
	_, err = grant.Resize(resizeGraph(1000, 1))
	if !errors.Is(err, ErrRejected) {
		t.Errorf("impossible grow: %v does not wrap ErrRejected", err)
	}
	if r := ReasonOf(err); !r.Capacity() {
		t.Errorf("impossible grow: reason %q is not capacity-class", r)
	}
	if after := reservedProfile(tr); before != after {
		t.Errorf("failed resize moved the ledger:\nbefore %s\nafter  %s", before, after)
	}

	// Released grants reject with ReasonReleased.
	grant.Release()
	if _, err := grant.Resize(resizeGraph(3, 1)); ReasonOf(err) != ReasonReleased {
		t.Errorf("resize after release: reason %q, want %q", ReasonOf(err), ReasonReleased)
	}

	// A tenant priced by a model other than its TAG (the baselines' VOC
	// or pipes) rejects with ReasonUnsupported: its reservation was not
	// computed from the graph a resize would re-price.
	grant, _, err = adm.Place(&Request{ID: 2, Graph: g, Model: translated{g}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grant.Resize(resizeGraph(3, 1)); ReasonOf(err) != ReasonUnsupported {
		t.Errorf("resize under a translated model: reason %q, want %q", ReasonOf(err), ReasonUnsupported)
	}
	grant.Release()
}

// translated stands in for a baseline's model: the TAG's own pricing
// behind a different Model value.
type translated struct{ *tag.Graph }

// TestConcurrentResizeRelease races Resize against Release (and a
// second Release) on the same grant: the operations must serialize,
// never double-free, and leave the ledger fully clean whichever order
// wins. The "locked" subtest name is kept from when a second admission
// path existed; it is the one Admitter.
func TestConcurrentResizeRelease(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		adm, tree := resizeAdmitter()
		idle := reservedProfile(tree)
		for round := 0; round < 50; round++ {
			g := resizeGraph(2, 1)
			grant, _, err := adm.Place(&Request{ID: int64(round), Graph: g, Model: g})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				// A resize may succeed or lose to the release; it must
				// never fail with anything but a typed error.
				if _, err := grant.Resize(resizeGraph(3, 2)); err != nil && ReasonOf(err) == "" {
					t.Errorf("untyped resize error: %v", err)
				}
			}()
			go func() { defer wg.Done(); grant.Release() }()
			go func() { defer wg.Done(); grant.Release() }()
			wg.Wait()
			if got := reservedProfile(tree); got != idle {
				t.Fatalf("round %d: ledger dirty after concurrent resize/release:\n got %s\nwant %s",
					round, got, idle)
			}
		}
	})
}
