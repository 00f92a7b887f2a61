package cloudmirror

import (
	"math"
	"math/rand"
	"testing"

	"cloudmirror/internal/tag"
)

// scanFit is the reference bandwidthFit is differential-tested against:
// the plain downward scan over every k, pricing the touching edges anew
// on each call — what the placer did before it learned to prove zeros.
func scanFit(g *tag.Graph, base, adds []int, t, maxK int, outLeft, inLeft float64) int {
	counts := make([]int, g.Tiers())
	for i := range counts {
		counts[i] = adds[i]
		if base != nil {
			counts[i] += base[i]
		}
	}
	baseT := counts[t]
	var touch []tag.Edge
	for _, e := range g.Edges() {
		if e.From == t || e.To == t {
			touch = append(touch, e)
		}
	}
	out0, in0 := g.EdgesCut(touch, counts)
	for k := maxK; k > 0; k-- {
		counts[t] = baseT + k
		eo, ei := g.EdgesCut(touch, counts)
		if eo-out0 <= outLeft && ei-in0 <= inLeft {
			return k
		}
	}
	return 0
}

// fitCase is one bandwidthFit question.
type fitCase struct {
	g          *tag.Graph
	base, adds []int
	t, maxK    int
}

// marginal returns the marginal (out, in) cut of adding k tier-t VMs.
func (c fitCase) marginal(k int) (float64, float64) {
	counts := make([]int, c.g.Tiers())
	for i := range counts {
		counts[i] = c.adds[i]
		if c.base != nil {
			counts[i] += c.base[i]
		}
	}
	o0, i0 := c.g.Cut(counts)
	counts[c.t] += k
	o, i := c.g.Cut(counts)
	return o - o0, i - i0
}

// randomFitCase draws a TAG with self-loops, trunks in both directions,
// bounded and unbounded external tiers, and a question about one of its
// internal tiers: sometimes a bare child, sometimes one already holding
// part of the tenant and a fill in progress.
func randomFitCase(r *rand.Rand) fitCase {
	g := tag.New("fit")
	internal := 1 + r.Intn(5)
	for i := 0; i < internal; i++ {
		g.AddTier(string(rune('a'+i)), 1+r.Intn(60))
	}
	if r.Intn(2) == 0 {
		g.AddExternal("bounded", 1+r.Intn(30))
	}
	if r.Intn(2) == 0 {
		g.AddExternal("unbounded", 0)
	}
	rate := func() float64 {
		if r.Intn(8) == 0 {
			return 0
		}
		return r.Float64() * 1500
	}
	for i := 0; i < internal; i++ {
		if r.Intn(2) == 0 {
			g.AddSelfLoop(i, rate())
		}
	}
	for n := r.Intn(3 * g.Tiers()); n > 0; n-- {
		u, v := r.Intn(g.Tiers()), r.Intn(g.Tiers())
		if u == v || g.Tier(u).External && g.Tier(v).External {
			continue
		}
		g.AddEdge(u, v, rate(), rate())
	}

	c := fitCase{g: g, adds: make([]int, g.Tiers()), t: r.Intn(internal)}
	room := g.Sizes()
	if r.Intn(3) > 0 { // not bare
		if r.Intn(4) > 0 {
			c.base = make([]int, g.Tiers())
		}
		for i := range room {
			if c.base != nil && room[i] > 0 {
				c.base[i] = r.Intn(room[i] + 1)
				room[i] -= c.base[i]
			}
			if room[i] > 0 && r.Intn(2) == 0 {
				c.adds[i] = r.Intn(room[i] + 1)
				room[i] -= c.adds[i]
			}
		}
	} else if r.Intn(2) == 0 {
		c.base = make([]int, g.Tiers()) // touched, then emptied
	}
	c.maxK = r.Intn(room[c.t] + 1)
	return c
}

// checkFit asks the production bandwidthFit (on a run built the way
// Place builds one) and the reference the same question.
func checkFit(t *testing.T, r *run, c fitCase, outLeft, inLeft float64) {
	t.Helper()
	want := scanFit(c.g, c.base, c.adds, c.t, c.maxK, outLeft, inLeft)
	bare := allZero(c.base) && allZero(c.adds)
	for _, hint := range []bool{bare, false} {
		if got := r.bandwidthFit(c.base, c.adds, hint, c.t, c.maxK, outLeft, inLeft); got != want {
			t.Fatalf("%s\nbase %v adds %v tier %d maxK %d budget (%v, %v) bare=%v: bandwidthFit = %d, linear scan = %d",
				c.g, c.base, c.adds, c.t, c.maxK, outLeft, inLeft, hint, got, want)
		}
	}
}

// TestDifferentialBandwidthFit: over random TAGs, fills and budgets,
// bandwidthFit returns what the linear scan returns — including budgets
// within a hair of the marginal cut at k = 1 and at k = maxK, the two
// values the zero proof probes, where an overshoot smaller than the
// margin must fall through to the scan instead of guessing.
func TestDifferentialBandwidthFit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := &run{}
	nudges := []float64{0, 1e-9, -1e-9, 5e-7, -5e-7, 1e-6, -1e-6, 2e-6, -2e-6, 1e-3, -1e-3}
	zeros, proven, interior := 0, 0, 0
	for iter := 0; iter < 4000; iter++ {
		c := randomFitCase(rng)
		r.g, r.model = c.g, c.g
		r.init()

		o1, i1 := c.marginal(1)
		oK, iK := c.marginal(c.maxK)
		scale := math.Max(math.Max(o1, oK), math.Max(i1, iK))
		// Random budgets, generous to starved, with an unbounded side now and then.
		for n := 0; n < 6; n++ {
			outLeft, inLeft := rng.Float64()*scale*1.3, rng.Float64()*scale*1.3
			switch rng.Intn(6) {
			case 0:
				outLeft = math.Inf(1)
			case 1:
				inLeft = math.Inf(1)
			case 2:
				outLeft, inLeft = outLeft*0.05, inLeft*0.05
			}
			checkFit(t, r, c, outLeft, inLeft)
			if scanFit(c.g, c.base, c.adds, c.t, c.maxK, outLeft, inLeft) == 0 && c.maxK >= 3 {
				zeros++
				mo, mi := math.Min(o1, oK), math.Min(i1, iK)
				if mo > outLeft+1e-3 || mi > inLeft+1e-3 {
					proven++
				}
			}
		}
		// Budgets that an interior k just meets: where the two ends fail
		// in different directions, the answer is that k, not zero.
		for n := 0; n < 4 && c.maxK >= 3; n++ {
			o, i := c.marginal(2 + rng.Intn(c.maxK-2))
			checkFit(t, r, c, o, i)
			checkFit(t, r, c, o+1e-7, i+1e-7)
			if (o1 > o+1e-3 || i1 > i+1e-3) && (oK > o+1e-3 || iK > i+1e-3) {
				interior++
			}
		}
		// Budgets at the probed cuts, nudged across the margin.
		for _, at := range [][2]float64{{o1, i1}, {oK, iK}} {
			for _, d := range nudges {
				checkFit(t, r, c, at[0]+d, math.Inf(1))
				checkFit(t, r, c, math.Inf(1), at[1]+d)
				checkFit(t, r, c, at[0]+d, at[1]-d)
			}
		}
	}
	// The comparison means little unless the shortcut's territory is in it.
	if zeros < 500 || proven < 200 || interior < 50 {
		t.Errorf("only %d zero results with maxK ≥ 3 (%d of them provable by two probes) and %d fits strictly between two failing ends: the generator no longer exercises the proof",
			zeros, proven, interior)
	}
}

// FuzzBandwidthFit lets the fuzzer pick the TAG (through the generator's
// seed) and both budgets.
func FuzzBandwidthFit(f *testing.F) {
	f.Add(int64(1), 100.0, 100.0)
	f.Add(int64(2), 0.0, math.Inf(1))
	f.Add(int64(3), math.Inf(1), 0.0)
	f.Add(int64(4), -1.0, 5000.0)
	f.Add(int64(5), 1e-6, 1e-6)
	f.Add(int64(6), 2500.0, 0.5)
	f.Add(int64(7), 1e9, 1e9)
	f.Add(int64(8), math.NaN(), 10.0)
	f.Fuzz(func(t *testing.T, seed int64, outLeft, inLeft float64) {
		c := randomFitCase(rand.New(rand.NewSource(seed)))
		r := &run{g: c.g, model: c.g}
		r.init()
		checkFit(t, r, c, outLeft, inLeft)
		// The same budgets measured from the probed cuts.
		o1, i1 := c.marginal(1)
		checkFit(t, r, c, o1+outLeft, i1+inLeft)
		oK, iK := c.marginal(c.maxK)
		checkFit(t, r, c, oK+outLeft, iK+inLeft)
	})
}
