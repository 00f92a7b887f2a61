package netem

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// addLink and maxMin unwrap the error returns for the well-formed
// inputs these tests construct; bad-input classification is covered by
// TestErrorsOnBadInput.
func addLink(n *Network, name string, capacity float64) LinkID {
	l, err := n.AddLink(name, capacity)
	if err != nil {
		panic(err)
	}
	return l
}

func maxMin(n *Network, flows []Flow) []float64 {
	rates, err := n.MaxMin(flows)
	if err != nil {
		panic(err)
	}
	return rates
}

func TestSingleBottleneckEqualShare(t *testing.T) {
	n := New()
	l := addLink(n, "L", 900)
	flows := []Flow{
		{Path: []LinkID{l}, Demand: Greedy},
		{Path: []LinkID{l}, Demand: Greedy},
		{Path: []LinkID{l}, Demand: Greedy},
	}
	rates := maxMin(n, flows)
	for i, r := range rates {
		if !almostEq(r, 300) {
			t.Errorf("flow %d rate = %g, want 300", i, r)
		}
	}
}

func TestDemandBoundedFlowReleasesShare(t *testing.T) {
	n := New()
	l := addLink(n, "L", 900)
	flows := []Flow{
		{Path: []LinkID{l}, Demand: 100},
		{Path: []LinkID{l}, Demand: Greedy},
		{Path: []LinkID{l}, Demand: Greedy},
	}
	rates := maxMin(n, flows)
	if !almostEq(rates[0], 100) || !almostEq(rates[1], 400) || !almostEq(rates[2], 400) {
		t.Errorf("rates = %v, want [100 400 400]", rates)
	}
}

func TestLimitActsAsRateLimiter(t *testing.T) {
	n := New()
	l := addLink(n, "L", 900)
	flows := []Flow{
		{Path: []LinkID{l}, Demand: Greedy, Limit: 150},
		{Path: []LinkID{l}, Demand: Greedy},
	}
	rates := maxMin(n, flows)
	if !almostEq(rates[0], 150) || !almostEq(rates[1], 750) {
		t.Errorf("rates = %v, want [150 750]", rates)
	}
}

func TestWeightedShares(t *testing.T) {
	n := New()
	l := addLink(n, "L", 900)
	flows := []Flow{
		{Path: []LinkID{l}, Demand: Greedy, Weight: 2},
		{Path: []LinkID{l}, Demand: Greedy, Weight: 1},
	}
	rates := maxMin(n, flows)
	if !almostEq(rates[0], 600) || !almostEq(rates[1], 300) {
		t.Errorf("rates = %v, want [600 300]", rates)
	}
}

func TestMultiLinkBottleneck(t *testing.T) {
	n := New()
	a := addLink(n, "A", 300)
	b := addLink(n, "B", 1000)
	flows := []Flow{
		{Path: []LinkID{a, b}, Demand: Greedy}, // bottlenecked at A
		{Path: []LinkID{b}, Demand: Greedy},    // takes the rest of B
	}
	rates := maxMin(n, flows)
	if !almostEq(rates[0], 300) || !almostEq(rates[1], 700) {
		t.Errorf("rates = %v, want [300 700]", rates)
	}
}

// TestClassicMaxMinExample: the textbook three-flow example. Links A and
// B both 10; flow1 on A, flow2 on B, flow3 on A+B. Fair allocation: 5 for
// flow3 (bottleneck shared on both), 5 for flows 1-2... progressive
// filling: all rise to 5, A and B saturate simultaneously.
func TestClassicMaxMinExample(t *testing.T) {
	n := New()
	a := addLink(n, "A", 10)
	b := addLink(n, "B", 10)
	flows := []Flow{
		{Path: []LinkID{a}, Demand: Greedy},
		{Path: []LinkID{b}, Demand: Greedy},
		{Path: []LinkID{a, b}, Demand: Greedy},
	}
	rates := maxMin(n, flows)
	if !almostEq(rates[0], 5) || !almostEq(rates[1], 5) || !almostEq(rates[2], 5) {
		t.Errorf("rates = %v, want [5 5 5]", rates)
	}
}

func TestZeroDemandAndEmptyPath(t *testing.T) {
	n := New()
	l := addLink(n, "L", 100)
	flows := []Flow{
		{Path: []LinkID{l}, Demand: 0},
		{Path: nil, Demand: Greedy},
		{Path: []LinkID{l}, Demand: Greedy},
	}
	rates := maxMin(n, flows)
	if rates[0] != 0 || rates[1] != 0 || !almostEq(rates[2], 100) {
		t.Errorf("rates = %v, want [0 0 100]", rates)
	}
}

// TestMaxMinProperties: Check's certificate on random networks —
// feasible, and every flow at its cap or at the top level of a
// saturated link.
func TestMaxMinProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := New()
		nl := 1 + r.Intn(5)
		for i := 0; i < nl; i++ {
			addLink(n, "l", 10+float64(r.Intn(1000)))
		}
		nf := 1 + r.Intn(8)
		flows := make([]Flow, nf)
		for i := range flows {
			hops := 1 + r.Intn(nl)
			seen := map[LinkID]bool{}
			for len(flows[i].Path) < hops {
				l := LinkID(r.Intn(nl))
				if !seen[l] {
					seen[l] = true
					flows[i].Path = append(flows[i].Path, l)
				}
			}
			if r.Intn(2) == 0 {
				flows[i].Demand = Greedy
			} else {
				flows[i].Demand = float64(r.Intn(500))
			}
			if r.Intn(3) == 0 {
				flows[i].Limit = float64(1 + r.Intn(400))
			}
			if r.Intn(3) == 0 {
				flows[i].Weight = 1 + float64(r.Intn(4))
			}
		}
		if err := Check(n.caps, flows, maxMin(n, flows)); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestErrorsOnBadInput: malformed input returns a typed error wrapping
// ErrBadInput — never a panic, so a bad state reaching the enforcement
// dataplane cannot crash a serving daemon.
func TestErrorsOnBadInput(t *testing.T) {
	n := New()
	addLink(n, "L", 10)
	if _, err := n.AddLink("bad", -1); !errors.Is(err, ErrBadInput) {
		t.Errorf("AddLink(-1) error = %v, want ErrBadInput", err)
	}
	if n.Links() != 1 {
		t.Errorf("failed AddLink mutated the network: %d links, want 1", n.Links())
	}
	if _, err := n.MaxMin([]Flow{{Path: []LinkID{9}, Demand: 1}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("MaxMin(unknown link) error = %v, want ErrBadInput", err)
	}
	if _, err := n.MaxMin([]Flow{{Path: []LinkID{-1}, Demand: 1}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("MaxMin(negative link) error = %v, want ErrBadInput", err)
	}
}
