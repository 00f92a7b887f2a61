package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Tree {
	return New(Spec{
		SlotsPerServer: 4,
		Levels: []LevelSpec{
			{Name: "server", Fanout: 3, Uplink: 100},
			{Name: "tor", Fanout: 2, Uplink: 150},
		},
	})
}

func TestShape(t *testing.T) {
	tr := small()
	if got := tr.NumNodes(); got != 1+2+6 {
		t.Fatalf("NumNodes = %d, want 9", got)
	}
	if len(tr.Servers()) != 6 {
		t.Fatalf("servers = %d, want 6", len(tr.Servers()))
	}
	if tr.Height() != 2 || tr.Level(tr.Root()) != 2 {
		t.Errorf("root level = %d, want 2", tr.Level(tr.Root()))
	}
	if len(tr.NodesAtLevel(1)) != 2 || len(tr.NodesAtLevel(0)) != 6 {
		t.Error("NodesAtLevel counts wrong")
	}
	for _, s := range tr.Servers() {
		if !tr.IsServer(s) || len(tr.Children(s)) != 0 {
			t.Errorf("server %d misclassified", s)
		}
		if tr.Level(tr.Parent(s)) != 1 {
			t.Errorf("server %d parent at level %d", s, tr.Level(tr.Parent(s)))
		}
	}
	if tr.Parent(tr.Root()) != NoNode {
		t.Error("root has a parent")
	}
	for _, tor := range tr.NodesAtLevel(1) {
		if len(tr.Children(tor)) != 3 {
			t.Errorf("tor %d has %d children, want 3", tor, len(tr.Children(tor)))
		}
	}
	if tr.LevelName(0) != "server" || tr.LevelName(2) != "root" {
		t.Error("LevelName wrong")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{SlotsPerServer: 0, Levels: []LevelSpec{{Fanout: 1}}},
		{SlotsPerServer: 1},
		{SlotsPerServer: 1, Levels: []LevelSpec{{Fanout: 0}}},
		{SlotsPerServer: 1, Levels: []LevelSpec{{Fanout: 1, Uplink: -5}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
	if err := PaperSpec().Validate(); err != nil {
		t.Errorf("PaperSpec invalid: %v", err)
	}
	if got := PaperSpec().Servers(); got != 2048 {
		t.Errorf("PaperSpec servers = %d, want 2048", got)
	}
}

func TestSlots(t *testing.T) {
	tr := small()
	s0 := tr.Servers()[0]
	if tr.SlotsFree(tr.Root()) != 24 || tr.SlotsTotal(tr.Root()) != 24 {
		t.Fatalf("root slots = %d/%d, want 24/24", tr.SlotsFree(tr.Root()), tr.SlotsTotal(tr.Root()))
	}
	if err := tr.UseSlots(s0, 3); err != nil {
		t.Fatal(err)
	}
	if tr.SlotsFree(s0) != 1 || tr.SlotsFree(tr.Parent(s0)) != 9 || tr.SlotsFree(tr.Root()) != 21 {
		t.Error("slot aggregates not propagated")
	}
	if err := tr.UseSlots(s0, 2); !errors.Is(err, ErrNoSlots) {
		t.Errorf("overcommit: got %v, want ErrNoSlots", err)
	}
	// Failed UseSlots must not change anything.
	if tr.SlotsFree(tr.Root()) != 21 {
		t.Error("failed UseSlots modified aggregates")
	}
	tr.ReleaseSlots(s0, 3)
	if tr.SlotsFree(tr.Root()) != 24 {
		t.Error("release did not restore aggregates")
	}
	if err := tr.UseSlots(tr.Root(), 1); err == nil {
		t.Error("UseSlots on non-server accepted")
	}
}

func TestReleaseSlotsPanicsOnOverRelease(t *testing.T) {
	tr := small()
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	tr.ReleaseSlots(tr.Servers()[0], 1)
}

func TestReserve(t *testing.T) {
	tr := small()
	s0 := tr.Servers()[0]
	if err := tr.Reserve(s0, 60, 40); err != nil {
		t.Fatal(err)
	}
	out, in := tr.UplinkReserved(s0)
	if out != 60 || in != 40 {
		t.Errorf("reserved = (%g,%g), want (60,40)", out, in)
	}
	out, in = tr.UplinkAvail(s0)
	if out != 40 || in != 60 {
		t.Errorf("avail = (%g,%g), want (40,60)", out, in)
	}
	// Atomicity: out fits, in does not -> no change.
	if err := tr.Reserve(s0, 10, 70); !errors.Is(err, ErrNoBandwidth) {
		t.Errorf("expected ErrNoBandwidth, got %v", err)
	}
	if out, in = tr.UplinkReserved(s0); out != 60 || in != 40 {
		t.Error("failed reserve modified ledger")
	}
	tr.Release(s0, 60, 40)
	if out, in = tr.UplinkReserved(s0); out != 0 || in != 0 {
		t.Error("release did not zero ledger")
	}
	// Over-release clamps at zero.
	tr.Release(s0, 5, 5)
	if out, in = tr.UplinkReserved(s0); out != 0 || in != 0 {
		t.Error("over-release went negative")
	}
	// Root has no uplink: zero reservations succeed, nonzero fail.
	if err := tr.Reserve(tr.Root(), 0, 0); err != nil {
		t.Errorf("zero root reservation failed: %v", err)
	}
	if err := tr.Reserve(tr.Root(), 1, 0); err == nil {
		t.Error("nonzero root reservation accepted")
	}
}

func TestLevelReserved(t *testing.T) {
	tr := small()
	tr.Reserve(tr.Servers()[0], 10, 20)
	tr.Reserve(tr.Servers()[4], 5, 5)
	tr.Reserve(tr.NodesAtLevel(1)[0], 7, 3)
	if got := tr.LevelReserved(0); got != 40 {
		t.Errorf("LevelReserved(0) = %g, want 40", got)
	}
	if got := tr.LevelReserved(1); got != 10 {
		t.Errorf("LevelReserved(1) = %g, want 10", got)
	}
}

func TestPathAncestryHelpers(t *testing.T) {
	tr := small()
	s := tr.Servers()[5]
	var path []NodeID
	tr.PathToRoot(s, func(n NodeID) { path = append(path, n) })
	if len(path) != 3 || path[0] != s || path[2] != tr.Root() {
		t.Errorf("PathToRoot = %v", path)
	}
	if tr.Ancestor(s, 1) != tr.Parent(s) || tr.Ancestor(s, 0) != s {
		t.Error("Ancestor wrong")
	}
	if !tr.Contains(tr.Root(), s) || !tr.Contains(tr.Parent(s), s) {
		t.Error("Contains false negative")
	}
	if tr.Contains(tr.NodesAtLevel(1)[0], s) {
		t.Error("Contains false positive (s is under the second tor)")
	}
	count := 0
	tr.ServersUnder(tr.NodesAtLevel(1)[1], func(NodeID) bool { count++; return true })
	if count != 3 {
		t.Errorf("ServersUnder visited %d, want 3", count)
	}
	count = 0
	tr.ServersUnder(tr.Root(), func(NodeID) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("ServersUnder early stop visited %d, want 2", count)
	}
	count = 0
	tr.ServersUnder(s, func(NodeID) bool { count++; return true })
	if count != 1 {
		t.Errorf("ServersUnder on a server visited %d, want 1", count)
	}
}

func TestOversubSpec(t *testing.T) {
	// 32x matches PaperSpec exactly.
	s := OversubSpec(32)
	if s.Levels[2].Uplink != PaperSpec().Levels[2].Uplink {
		t.Errorf("32x agg uplink = %g, want %g", s.Levels[2].Uplink, PaperSpec().Levels[2].Uplink)
	}
	// Doubling the ratio halves the agg uplink.
	if s64 := OversubSpec(64); s64.Levels[2].Uplink*2 != s.Levels[2].Uplink {
		t.Errorf("64x agg uplink = %g, want half of %g", s64.Levels[2].Uplink, s.Levels[2].Uplink)
	}
}

// TestSlotConservationProperty: any sequence of valid UseSlots/
// ReleaseSlots keeps every aggregate equal to the sum over its servers.
func TestSlotConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := small()
		used := make(map[NodeID]int)
		for i := 0; i < 100; i++ {
			s := tr.Servers()[r.Intn(6)]
			if r.Intn(2) == 0 {
				k := r.Intn(3)
				if tr.UseSlots(s, k) == nil {
					used[s] += k
				}
			} else if used[s] > 0 {
				tr.ReleaseSlots(s, 1)
				used[s]--
			}
		}
		// Check every internal node's aggregate.
		for l := 1; l <= tr.Height(); l++ {
			for _, n := range tr.NodesAtLevel(l) {
				sum := 0
				tr.ServersUnder(n, func(s NodeID) bool { sum += tr.SlotsFree(s); return true })
				if sum != tr.SlotsFree(n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestContainsMatchesParentWalk: the preorder-range Contains agrees with
// the definition — sub is n or has n among its ancestors — for every
// ordered pair of nodes, on a regular tree and on one whose fanout
// differs at every level.
func TestContainsMatchesParentWalk(t *testing.T) {
	uneven := Spec{
		SlotsPerServer: 2,
		Levels: []LevelSpec{
			{Name: "server", Fanout: 5, Uplink: 100},
			{Name: "tor", Fanout: 1, Uplink: 100},
			{Name: "agg", Fanout: 3, Uplink: 100},
			{Name: "core", Fanout: 2, Uplink: 100},
		},
	}
	for name, spec := range map[string]Spec{"small": SmallSpec(), "uneven": uneven} {
		tr := New(spec)
		walk := func(n, sub NodeID) bool {
			for m := sub; m != NoNode; m = tr.Parent(m) {
				if m == n {
					return true
				}
			}
			return false
		}
		for n := NodeID(0); int(n) < tr.NumNodes(); n++ {
			for sub := NodeID(0); int(sub) < tr.NumNodes(); sub++ {
				if got, want := tr.Contains(n, sub), walk(n, sub); got != want {
					t.Fatalf("%s: Contains(%d, %d) = %v, parent walk says %v", name, n, sub, got, want)
				}
			}
			if tr.Contains(n, NoNode) || tr.Contains(NoNode, n) {
				t.Fatalf("%s: NoNode contained in or containing %d", name, n)
			}
		}
		// A clone shares the shape, so it must answer alike.
		if c := tr.Clone(); !c.Contains(c.Root(), c.Servers()[0]) || c.Contains(c.Servers()[0], c.Root()) {
			t.Errorf("%s: clone lost the containment table", name)
		}
	}
}

// TestBandwidthError: a refused reservation is a *BandwidthError carrying
// the link and both directions' numbers, still ErrNoBandwidth to
// errors.Is, and renders the message fmt.Errorf used to build eagerly.
func TestBandwidthError(t *testing.T) {
	tr := small()
	s0 := tr.Servers()[0]
	if err := tr.Reserve(s0, 60.5, 20); err != nil {
		t.Fatal(err)
	}
	check := func(err error, out, in float64) {
		t.Helper()
		if !errors.Is(err, ErrNoBandwidth) {
			t.Fatalf("errors.Is(%v, ErrNoBandwidth) = false", err)
		}
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Fatalf("errors.As(%v, *BandwidthError) = false", err)
		}
		want := BandwidthError{Node: s0, Level: "server", Cap: 100, ResOut: 60.5, Out: out, ResIn: 20, In: in}
		if *be != want {
			t.Errorf("got %+v, want %+v", *be, want)
		}
		old := fmt.Errorf("%w: node %d (%s) cap %g, out %g+%g, in %g+%g", ErrNoBandwidth,
			s0, "server", 100.0, 60.5, out, 20.0, in)
		if err.Error() != old.Error() {
			t.Errorf("message %q, want %q", err, old)
		}
	}
	check(tr.Reserve(s0, 40, 0.25), 40, 0.25)
	check(tr.Validate(Delta{Links: []LinkDelta{{Node: s0, Out: 1, In: 90}}}), 1, 90)
	if out, in := tr.UplinkReserved(s0); out != 60.5 || in != 20 {
		t.Errorf("refusals changed the ledger: (%g, %g)", out, in)
	}
}
