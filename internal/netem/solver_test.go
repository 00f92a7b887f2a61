package netem

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randInstance builds a bounded random network + flow set. Magnitudes
// are kept small (caps/demands ≤ 4096, weights in [1/8, 8], ≤ 12 links,
// ≤ 48 flows) so accumulated FP error in the per-link residual sums
// stays far below the solver's 1e-9 freeze epsilon — outside that
// envelope progressive filling can stall.
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
func requireBitIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rate count: got %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: flow %d: got %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// requireCertified fails unless Check accepts the rates.
func requireCertified(t *testing.T, what string, caps []float64, flows []Flow, rates []float64) {
	t.Helper()
	if err := Check(caps, flows, rates); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestSolverMatchesReference holds the solver to itself and to the
// certificate over random bounded instances: one Solver reused
// throughout returns the bits a fresh one does — scratch-reuse bugs
// (stale generations, under-cleared buffers) surface as divergence —
// and every answer passes Check.
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
		want, err := n.MaxMin(flows)
		if err != nil {
			t.Fatalf("iter %d: fresh solver: %v", it, err)
		}
		got, err := s.MaxMin(n, flows, buf[:0])
		if err != nil {
			t.Fatalf("iter %d: reused solver: %v", it, err)
		}
		buf = got
		what := fmt.Sprintf("iter %d", it)
		requireBitIdentical(t, what, got, want)
		requireCertified(t, what, n.caps, flows, got)
	}
}

// TestSolverInvariants checks the event loop itself against first
// principles, not against another solver: with the "every cap fits"
// return switched off, every answer over the random generator passes
// Check — feasible, and every flow at its cap or at the top level of a
// saturated link.
func TestSolverInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Solver
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	for it := 0; it < iters; it++ {
		n, flows := randInstance(rng)
		s.solve(n.caps, flows, false)
		requireCertified(t, fmt.Sprintf("iter %d", it), n.caps, flows, s.rates[:len(flows)])
	}
}

// TestSolverBadInput pins the out-of-range link error: it wraps
// ErrBadInput and names the flow and the link, and Check refuses the
// same input with the same error.
func TestSolverBadInput(t *testing.T) {
	n := New()
	if _, err := n.AddLink("a", 10); err != nil {
		t.Fatal(err)
	}
	flows := []Flow{{Path: []LinkID{3}, Demand: 1}}
	const want = "netem: bad input: flow 0 references unknown link 3 (network has 1)"
	if _, err := n.MaxMin(flows); !errors.Is(err, ErrBadInput) || err.Error() != want {
		t.Fatalf("MaxMin error = %v, want %q wrapping ErrBadInput", err, want)
	}
	if err := Check(n.caps, flows, []float64{0}); !errors.Is(err, ErrBadInput) || err.Error() != want {
		t.Fatalf("Check error = %v, want %q wrapping ErrBadInput", err, want)
	}
}

// TestSolverDuplicateLinks pins the duplicate-path-entry semantics: a
// flow crossing the same link twice consumes double capacity there, and
// Check counts it twice too.
func TestSolverDuplicateLinks(t *testing.T) {
	n := New()
	l, _ := n.AddLink("loop", 10)
	flows := []Flow{{Path: []LinkID{l, l}, Demand: Greedy}}
	got, err := n.MaxMin(flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-5) > 1e-6 {
		t.Fatalf("double-crossing flow got %v, want ~5", got[0])
	}
	requireCertified(t, "double crossing", n.caps, flows, got)
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

// BenchmarkMaxMin times the solver on a parking-lot style instance
// sized like an enforcement step.
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

// TestDifferentialFitsShortcut holds the solver's "every cap fits" early
// return to its own event loop, Float64bits, the loop reached by
// clearing solve's shortcut: instances whose tightest link sits at every
// fitsDeltas distance from capacity, with the last two flows on it
// between nothing and 3 Mbps apart — a margin on the wrong side of
// capacity fails here — and then the rounding band, Σcap within a few
// ulps of capacity and the last flow just over the freeze epsilon short
// of its cap when the link fills, where only the folds' rounding decides
// whether the link saturates first: what the margin exists for, and
// where a margin of 0 fails (Check alone would not notice: both answers
// are within its tolerance). Every answer passes Check, and far from
// capacity it is the caps themselves.
func TestDifferentialFitsShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s, loop Solver
	var buf []float64
	// solve returns the production answer, once the event loop has
	// returned the same bits.
	solve := func(what string, n *Network, flows []Flow) []float64 {
		t.Helper()
		got, err := s.MaxMin(n, flows, buf[:0])
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		buf = got
		loop.solve(n.caps, flows, false)
		requireBitIdentical(t, what, got, loop.rates[:len(flows)])
		return got
	}
	check := func(delta, gap float64) {
		t.Helper()
		what := fmt.Sprintf("delta %g gap %g", delta, gap)
		n, flows := fitsInstance(rng, delta, gap)
		got := solve(what, n, flows)
		requireCertified(t, what, n.caps, flows, got)
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
				t.Fatalf("%s: flow %d got %v with every link slack, want its cap %v", what, i, got[i], f.cap())
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

	// Shapes the random instances do not reach. Inside Check's domain
	// they must pass it; outside it (want set) they must keep the values
	// the solver has always returned: an overflowing cap event never
	// rises, and an unbounded flow on an unbounded link stops at the last
	// finite event.
	for _, tc := range []struct {
		name  string
		cap   float64
		flows []Flow
		want  []float64
	}{
		{"a link crossed twice counts twice", 30, []Flow{{Path: []LinkID{0, 0}, Demand: 20}}, nil},
		{"unbounded link, bounded flows", math.Inf(1), []Flow{{Path: []LinkID{0}, Demand: 7}, {Path: []LinkID{0}, Demand: Greedy, Limit: 3}}, nil},
		{"empty link", 0, []Flow{{Path: []LinkID{0}, Demand: 7}}, nil},
		{"cap event overflows: nothing ever rises", 1000, []Flow{{Path: []LinkID{0}, Demand: 100, Weight: 1e-320}}, []float64{0}},
		{"unbounded link, unbounded flow", math.Inf(1), []Flow{{Path: []LinkID{0}, Demand: 7}, {Path: []LinkID{0}, Demand: Greedy}}, []float64{7, 7}},
	} {
		n := New()
		if _, err := n.AddLink("l", tc.cap); err != nil {
			t.Fatal(err)
		}
		got := solve(tc.name, n, tc.flows)
		if tc.want == nil {
			requireCertified(t, tc.name, n.caps, tc.flows, got)
		} else {
			requireBitIdentical(t, tc.name, got, tc.want)
		}
	}
}
