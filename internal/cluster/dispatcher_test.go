package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/topology"
)

func loadsOf(mbps ...float64) []Load {
	loads := make([]Load, len(mbps))
	for i, v := range mbps {
		loads[i] = Load{ReservedMbps: v}
	}
	return loads
}

func TestRoundRobinCycles(t *testing.T) {
	var p RoundRobin
	loads := loadsOf(0, 0, 0)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := p.Pick(loads); got != w {
			t.Fatalf("pick %d = %d, want %d", i, got, w)
		}
	}
}

// TestLeastLoadedPick: crafted load states map to the expected shard,
// with ties broken toward the lowest ID.
func TestLeastLoadedPick(t *testing.T) {
	cases := []struct {
		loads []Load
		want  int
	}{
		{loadsOf(100), 0},
		{loadsOf(300, 100, 200), 1},
		{loadsOf(300, 200, 100), 2},
		{loadsOf(0, 0, 0), 0},          // all tied: lowest ID
		{loadsOf(500, 100, 100, 9), 3}, // distinct minimum
		{loadsOf(100, 50, 50), 1},      // tie between 1 and 2
	}
	for _, c := range cases {
		if got := (LeastLoaded{}).Pick(c.loads); got != c.want {
			t.Errorf("Pick(%v) = %d, want %d", c.loads, got, c.want)
		}
	}
}

// TestPowerOfTwoPick: with two shards both are always sampled, so the
// pick is fully determined by the crafted loads; with one shard no
// randomness is consumed.
func TestPowerOfTwoPick(t *testing.T) {
	p := NewPowerOfTwo(1)
	if got := p.Pick(loadsOf(42)); got != 0 {
		t.Errorf("single shard pick = %d, want 0", got)
	}
	for i := 0; i < 20; i++ {
		if got := p.Pick(loadsOf(700, 100)); got != 1 {
			t.Fatalf("pick %d chose shard %d, want the less-loaded shard 1", i, got)
		}
		if got := p.Pick(loadsOf(100, 700)); got != 0 {
			t.Fatalf("pick %d chose shard %d, want the less-loaded shard 0", i, got)
		}
		if got := p.Pick(loadsOf(300, 300)); got != 0 {
			t.Fatalf("pick %d chose shard %d, want tie broken to 0", i, got)
		}
	}
}

// TestPowerOfTwoSeeded: equal seeds give identical pick sequences,
// different seeds diverge (with overwhelming probability over 64
// picks of 16 shards).
func TestPowerOfTwoSeeded(t *testing.T) {
	loads := loadsOf(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	seq := func(seed int64) []int {
		p := NewPowerOfTwo(seed)
		picks := make([]int, 64)
		for i := range picks {
			picks[i] = p.Pick(loads)
		}
		return picks
	}
	a, b, c := seq(7), seq(7), seq(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed produced different sequences:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Errorf("different seeds produced identical sequences: %v", a)
	}
}

// rejectingPlacer always rejects for capacity and counts its calls.
type rejectingPlacer struct{ calls *atomic.Int64 }

func (p rejectingPlacer) Name() string { return "always-reject" }
func (p rejectingPlacer) Place(req *place.Request) (*place.Reservation, error) {
	p.calls.Add(1)
	return nil, fmt.Errorf("full: %w", place.ErrRejected)
}

// failingPlacer returns a non-capacity error: an internal failure that
// must surface immediately instead of triggering failover.
type failingPlacer struct{ calls *atomic.Int64 }

func (p failingPlacer) Name() string { return "always-fail" }
func (p failingPlacer) Place(req *place.Request) (*place.Reservation, error) {
	p.calls.Add(1)
	return nil, errors.New("internal placer failure")
}

// TestDispatcherFailoverExhaustsShards: when every shard rejects, the
// dispatcher tries each shard exactly once before rejecting the
// request.
func TestDispatcherFailoverExhaustsShards(t *testing.T) {
	const n = 5
	counts := make([]*atomic.Int64, 0, n)
	c, err := New(topology.SmallSpec(), n, func(tr *topology.Tree) place.Placer {
		cnt := &atomic.Int64{}
		counts = append(counts, cnt)
		return rejectingPlacer{calls: cnt}
	}, 1) // workers=1: construction is serial, so shard i gets counts[i]
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(c, &RoundRobin{})
	_, _, err = d.Place(testRequest(t, 1))
	if !errors.Is(err, place.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	for i, cnt := range counts {
		if got := cnt.Load(); got != 1 {
			t.Errorf("shard %d saw %d attempts, want exactly 1", i, got)
		}
	}
	st := d.Stats()
	if st.Rejected != 1 || st.Admitted != 0 || st.Failovers != n-1 {
		t.Errorf("stats = %+v, want {Admitted:0 Rejected:1 Failovers:%d}", st, n-1)
	}
}

// TestDispatcherFailoverAdmits: rejections on the first picks fail over
// (in wrap-around ID order) until a shard admits.
func TestDispatcherFailoverAdmits(t *testing.T) {
	var built atomic.Int64
	rejects := &atomic.Int64{}
	c, err := New(topology.SmallSpec(), 3, func(tr *topology.Tree) place.Placer {
		if built.Add(1) <= 2 {
			return rejectingPlacer{calls: rejects} // shards 0 and 1
		}
		return cloudmirror.New(tr) // shard 2
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(c, &RoundRobin{}) // first pick is shard 0
	ten, ev, err := d.Place(testRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer ten.Release()
	if ev.Kind != place.EventAdmitted || ev.First != 0 || ev.Shard != 2 || ev.Key != ten.Key() {
		t.Errorf("walk event = {%s first %d shard %d key %d}, want an admission walked from 0 to 2 with key %d",
			ev.Kind, ev.First, ev.Shard, ev.Key, ten.Key())
	}
	if got := rejects.Load(); got != 2 {
		t.Errorf("rejecting shards saw %d attempts, want 2", got)
	}
	st := d.Stats()
	if st.Admitted != 1 || st.Rejected != 0 || st.Failovers != 2 {
		t.Errorf("stats = %+v, want {Admitted:1 Rejected:0 Failovers:2}", st)
	}
}

// TestDispatcherInternalErrorSurfaces: a non-capacity error aborts the
// request without failover.
func TestDispatcherInternalErrorSurfaces(t *testing.T) {
	calls := &atomic.Int64{}
	c, err := New(topology.SmallSpec(), 3, func(tr *topology.Tree) place.Placer {
		return failingPlacer{calls: calls}
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(c, &RoundRobin{})
	_, _, err = d.Place(testRequest(t, 1))
	if err == nil || errors.Is(err, place.ErrRejected) {
		t.Fatalf("err = %v, want a surfaced internal error", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("placers saw %d calls, want 1 (no failover on internal errors)", got)
	}
}

// TestDispatcherLeastLoadedRouting: an end-to-end check that the
// least-loaded policy steers a request away from an occupied shard.
func TestDispatcherLeastLoadedRouting(t *testing.T) {
	c := newTestCluster(t, 2)
	seed, _, err := c.Shard(0).Place(testRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Release()
	d := NewDispatcher(c, LeastLoaded{})
	ten, ev, err := d.Place(testRequest(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer ten.Release()
	if got := ev.Shard; got != 1 {
		t.Errorf("least-loaded routed to shard %d, want the empty shard 1", got)
	}
}
