package netem

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randInstance builds a bounded random network + flow set. Magnitudes
// are kept small (caps/demands ≤ 4096, weights in [1/8, 8], ≤ 12 links,
// ≤ 48 flows) so accumulated FP error in the per-link residual sums
// stays far below the solver's 1e-9 freeze epsilon — outside that
// envelope progressive filling itself (reference included) can stall.
func randInstance(rng *rand.Rand) (*Network, []Flow) {
	n := New()
	links := 1 + rng.Intn(12)
	for l := 0; l < links; l++ {
		cap := float64(rng.Intn(4096)) / 4
		if rng.Intn(8) == 0 {
			cap = 0
		}
		if _, err := n.AddLink("l", cap); err != nil {
			panic(err)
		}
	}
	flows := make([]Flow, rng.Intn(48))
	for i := range flows {
		hops := rng.Intn(4)
		path := make([]LinkID, 0, hops)
		for h := 0; h < hops; h++ {
			path = append(path, LinkID(rng.Intn(links)))
		}
		f := Flow{Path: path}
		switch rng.Intn(4) {
		case 0:
			f.Demand = Greedy
		default:
			f.Demand = float64(rng.Intn(4096)) / 8
		}
		if rng.Intn(3) == 0 {
			f.Limit = float64(rng.Intn(4096)) / 8
		}
		if rng.Intn(2) == 0 {
			f.Weight = math.Ldexp(1, rng.Intn(7)-3) // 1/8 .. 8
		}
		flows[i] = f
	}
	return n, flows
}

// requireBitIdentical fails unless got and want match Float64bits-wise.
func requireBitIdentical(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rate count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("flow %d: fast %v (%#x) != reference %v (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSolverMatchesReference cross-checks the event-driven solver
// against MaxMinReference bit-for-bit over random bounded instances,
// reusing one Solver throughout so scratch-reuse bugs (stale
// generations, under-cleared buffers) surface as divergence.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Solver
	var buf []float64
	iters := 2000
	if testing.Short() {
		iters = 400
	}
	for it := 0; it < iters; it++ {
		n, flows := randInstance(rng)
		want, err := n.MaxMinReference(flows)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", it, err)
		}
		var got []float64
		got, err = s.MaxMin(n, flows, buf[:0])
		if err != nil {
			t.Fatalf("iter %d: solver: %v", it, err)
		}
		buf = got
		requireBitIdentical(t, got, want)
	}
}

// TestSolverInvariants checks the allocation against first principles
// rather than against the reference: feasibility (no link above
// capacity beyond rounding), Pareto-efficiency (every flow pinned by
// its cap or by a saturated link on its path), and weighted fairness
// (flows sharing a bottleneck and short of their caps get rates
// proportional to weight).
func TestSolverInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Solver
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	const tol = 1e-6
	for it := 0; it < iters; it++ {
		n, flows := randInstance(rng)
		rates, err := s.MaxMin(n, flows, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}

		// Feasibility.
		load := make([]float64, n.Links())
		for i, f := range flows {
			if rates[i] < 0 {
				t.Fatalf("iter %d: flow %d negative rate %v", it, i, rates[i])
			}
			if rates[i] > f.cap()+tol {
				t.Fatalf("iter %d: flow %d rate %v above cap %v", it, i, rates[i], f.cap())
			}
			for _, l := range f.Path {
				load[l] += rates[i]
			}
		}
		for l := range load {
			if load[l] > n.Capacity(LinkID(l))+tol {
				t.Fatalf("iter %d: link %d load %v above capacity %v",
					it, l, load[l], n.Capacity(LinkID(l)))
			}
		}

		// Pareto-efficiency: a flow below its cap must cross a link with
		// (nearly) no headroom — otherwise its rate could rise without
		// hurting anyone.
		for i, f := range flows {
			if len(f.Path) == 0 || rates[i] >= f.cap()-tol {
				continue
			}
			bottleneck := false
			for _, l := range f.Path {
				if n.Capacity(l)-load[l] <= tol {
					bottleneck = true
					break
				}
			}
			if !bottleneck {
				t.Fatalf("iter %d: flow %d at %v (cap %v) has headroom on every link",
					it, i, rates[i], f.cap())
			}
		}

		// Weighted fairness: two cap-unconstrained flows sharing a
		// saturated link receive rate/weight shares within tolerance —
		// neither can be ahead of the other at the shared bottleneck.
		for l := 0; l < n.Links(); l++ {
			if n.Capacity(LinkID(l))-load[l] > tol {
				continue
			}
			level := math.Inf(1)
			for i, f := range flows {
				if rates[i] >= f.cap()-tol || !onPath(f.Path, LinkID(l)) {
					continue
				}
				share := rates[i] / f.weight()
				if share < level {
					level = share
				}
			}
			for i, f := range flows {
				if rates[i] >= f.cap()-tol || !onPath(f.Path, LinkID(l)) {
					continue
				}
				share := rates[i] / f.weight()
				// A flow's share may exceed the link's fair level only if
				// this link is not its bottleneck (it froze elsewhere at a
				// lower level never happens; higher levels do when the
				// min-share flow froze early on another saturated link).
				// The max-min property we can assert unconditionally: no
				// flow sits below the link level by more than rounding
				// unless some other link pinned it there first.
				if share < level-tol {
					t.Fatalf("iter %d: link %d: flow %d share %v below level %v",
						it, l, i, share, level)
				}
			}
		}
	}
}

func onPath(path []LinkID, l LinkID) bool {
	for _, p := range path {
		if p == l {
			return true
		}
	}
	return false
}

// TestSolverBadInput verifies the fast path reports out-of-range link
// references with the same wrapped error as the reference.
func TestSolverBadInput(t *testing.T) {
	n := New()
	if _, err := n.AddLink("a", 10); err != nil {
		t.Fatal(err)
	}
	flows := []Flow{{Path: []LinkID{3}, Demand: 1}}
	_, refErr := n.MaxMinReference(flows)
	if refErr == nil {
		t.Fatal("reference accepted unknown link")
	}
	_, fastErr := n.MaxMin(flows)
	if fastErr == nil {
		t.Fatal("want error for unknown link")
	}
	if fastErr.Error() != refErr.Error() {
		t.Fatalf("error text diverged:\nfast: %v\nref:  %v", fastErr, refErr)
	}
}

// TestSolverDuplicateLinks pins the duplicate-path-entry semantics: a
// flow crossing the same link twice consumes double capacity there, in
// both implementations.
func TestSolverDuplicateLinks(t *testing.T) {
	n := New()
	l, _ := n.AddLink("loop", 10)
	flows := []Flow{{Path: []LinkID{l, l}, Demand: Greedy}}
	want, err := n.MaxMinReference(flows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.MaxMin(flows)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	if math.Abs(got[0]-5) > 1e-6 {
		t.Fatalf("double-crossing flow got %v, want ~5", got[0])
	}
}

// TestSolverZeroAllocs asserts the steady-state zero-allocation
// contract: after warm-up, repeated solves on same-shaped inputs do not
// allocate. Skipped under the race detector, whose instrumentation
// allocates on its own.
func TestSolverZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	rng := rand.New(rand.NewSource(3))
	n, flows := randInstance(rng)
	for len(flows) == 0 {
		n, flows = randInstance(rng)
	}
	var s Solver
	buf, err := s.MaxMin(n, flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var e error
		buf, e = s.MaxMin(n, flows, buf[:0])
		if e != nil {
			t.Fatal(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state solve allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkMaxMin compares the fast path and the reference on a
// parking-lot style instance sized like an enforcement step.
func BenchmarkMaxMin(b *testing.B) {
	n := New()
	const links = 64
	ids := make([]LinkID, links)
	for l := range ids {
		ids[l], _ = n.AddLink("l", 1000)
	}
	rng := rand.New(rand.NewSource(4))
	flows := make([]Flow, 1024)
	for i := range flows {
		a, c := rng.Intn(links), rng.Intn(links)
		flows[i] = Flow{Path: []LinkID{ids[a], ids[c]}, Demand: Greedy, Weight: 1 + rng.Float64()}
	}
	solver := func(flows []Flow) func(*testing.B) {
		return func(b *testing.B) {
			var s Solver
			var buf []float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = s.MaxMin(n, flows, buf[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Backlogged flows: the fits test gives up at the first link and the
	// event loop runs.
	b.Run("solver", solver(flows))
	// The same flows with demands every link has room for (≈32 flows of
	// at most 10 Mbps on each 1000 Mbps link): the early return.
	fitting := slices.Clone(flows)
	for i := range fitting {
		fitting[i].Demand = 10 * rng.Float64()
	}
	b.Run("fits", solver(fitting))
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := n.MaxMinReference(flows); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fitsDeltas are the distances from capacity at which
// TestDifferentialFitsShortcut parks the tightest link's Σcap: well clear
// of the fits margin, straddling it (1e-5 … 1e-6 decide by the link's
// size), inside it, at capacity, and past it.
var fitsDeltas = []float64{1e-3, 1e-5, 2e-6, 1e-6, 1e-7, 1e-9, 1e-12, 0, -1e-12, -1e-9, -1e-6}

// fitsInstance builds an instance around the solver's fits test: every
// touched link has room for the caps crossing it except one, whose
// capacity is its Σcap (summed as the solver sums it) plus delta. The two
// largest cap events on that link are gap apart, so where the link does
// fill, a flow short of its cap by more than the freeze epsilon is still
// rising — the case in which the answer is not the caps. Limits, weights
// 1/8…8, a Greedy flow with and without a Limit, a duplicated link on one
// path and pre-frozen (zero-demand, pathless) flows are mixed in.
func fitsInstance(rng *rand.Rand, delta, gap float64) (*Network, []Flow) {
	links := 1 + rng.Intn(6)
	tight := LinkID(rng.Intn(links))
	randPath := func() []LinkID {
		path := make([]LinkID, 1+rng.Intn(3))
		for h := range path {
			path[h] = LinkID(rng.Intn(links))
		}
		return path
	}
	var flows []Flow
	top := 0.0 // largest cap event so far
	for i, n := 0, 1+rng.Intn(20); i < n; i++ {
		f := Flow{Path: randPath(), Demand: float64(1+rng.Intn(4096)) / 8}
		switch rng.Intn(8) {
		case 0:
			f.Demand = 500 * rng.Float64() // not dyadic: the sums round
		case 1:
			f.Demand, f.Limit = Greedy, float64(1+rng.Intn(4096))/8
		case 2:
			f.Demand = 0 // pre-frozen, on a path
		case 3:
			f.Path = nil // pre-frozen, pathless
		case 4:
			f.Path = append(f.Path, f.Path[0]) // a link crossed twice
		}
		if rng.Intn(3) == 0 {
			f.Limit = float64(1+rng.Intn(4096)) / 8
		}
		if rng.Intn(2) == 0 {
			f.Weight = math.Ldexp(1, rng.Intn(7)-3)
		}
		if len(f.Path) > 0 {
			top = math.Max(top, f.cap()/f.weight())
		}
		flows = append(flows, f)
	}
	// The last two events on the tight link, gap apart, at random places
	// in the flow order.
	for _, c := range []float64{top + 1, top + 1 + gap} {
		at := rng.Intn(len(flows) + 1)
		flows = append(flows, Flow{})
		copy(flows[at+1:], flows[at:])
		flows[at] = Flow{Path: []LinkID{tight}, Demand: c}
	}
	if rng.Intn(6) == 0 {
		// Unbounded: no fit is possible, the event loop must run.
		flows = append(flows, Flow{Path: randPath(), Demand: Greedy})
	}

	sum := make([]float64, links)
	for _, f := range flows {
		if f.cap() > 0 && !math.IsInf(f.cap(), 1) {
			for _, l := range f.Path {
				sum[l] += f.cap()
			}
		}
	}
	n := New()
	for l := 0; l < links; l++ {
		c := 2*sum[l] + 10
		if LinkID(l) == tight {
			c = sum[l] + delta
		}
		if _, err := n.AddLink("l", c); err != nil {
			panic(err)
		}
	}
	return n, flows
}

// TestDifferentialFitsShortcut drives the solver's "every cap fits" early
// return and its fall-through across the margin, Float64bits against
// MaxMinReference: instances whose tightest link sits at every
// fitsDeltas distance from capacity, with the last two flows on it
// between nothing and 3 Mbps apart — a margin on the wrong side of
// capacity fails here — and then the rounding band, Σcap within a few
// ulps of capacity and the last flow just over the freeze epsilon short
// of its cap when the link fills, where only the folds' rounding decides
// whether the link saturates first: what the margin exists for, and
// where a margin of 0 fails. Far from capacity the answer must be the
// caps themselves.
func TestDifferentialFitsShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Solver
	var buf []float64
	check := func(delta, gap float64) {
		t.Helper()
		n, flows := fitsInstance(rng, delta, gap)
		want, err := n.MaxMinReference(flows)
		if err != nil {
			t.Fatalf("delta %g gap %g: reference: %v", delta, gap, err)
		}
		got, err := s.MaxMin(n, flows, buf[:0])
		if err != nil {
			t.Fatalf("delta %g gap %g: solver: %v", delta, gap, err)
		}
		buf = got
		requireBitIdentical(t, got, want)
		if delta < 1e-3 {
			return
		}
		for _, f := range flows {
			if len(f.Path) > 0 && math.IsInf(f.cap(), 1) {
				return // unbounded: the event loop ran
			}
		}
		for i, f := range flows {
			if len(f.Path) > 0 && got[i] != math.Max(f.cap(), 0) {
				t.Fatalf("flow %d got %v with every link slack, want its cap %v", i, got[i], f.cap())
			}
		}
	}
	gaps := []float64{0, 5e-10, 2e-9, 1e-7, 5e-7, 3}
	iters, band := 300, 12000
	if testing.Short() {
		iters, band = 60, 6000
	}
	for it := 0; it < iters; it++ {
		for _, delta := range fitsDeltas {
			check(delta, gaps[rng.Intn(len(gaps))])
		}
	}
	for it := 0; it < band; it++ {
		check([]float64{0, 1e-13, 3e-13, 1e-12}[it%4], 1e-9+[]float64{1e-13, 3e-13, 1e-12}[rng.Intn(3)])
	}

	// Shapes the random instances do not reach.
	for _, tc := range []struct {
		name  string
		cap   float64
		flows []Flow
	}{
		{"a link crossed twice counts twice", 30, []Flow{{Path: []LinkID{0, 0}, Demand: 20}}},
		{"cap event overflows: nothing ever rises", 1000, []Flow{{Path: []LinkID{0}, Demand: 100, Weight: 1e-320}}},
		{"unbounded link, bounded flows", math.Inf(1), []Flow{{Path: []LinkID{0}, Demand: 7}, {Path: []LinkID{0}, Demand: Greedy, Limit: 3}}},
		{"unbounded link, unbounded flow", math.Inf(1), []Flow{{Path: []LinkID{0}, Demand: 7}, {Path: []LinkID{0}, Demand: Greedy}}},
		{"empty link", 0, []Flow{{Path: []LinkID{0}, Demand: 7}}},
	} {
		n := New()
		if _, err := n.AddLink("l", tc.cap); err != nil {
			t.Fatal(err)
		}
		want, err := n.MaxMinReference(tc.flows)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got, err := s.MaxMin(n, tc.flows, nil)
		if err != nil {
			t.Fatalf("%s: solver: %v", tc.name, err)
		}
		requireBitIdentical(t, got, want)
	}
}
