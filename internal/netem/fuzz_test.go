package netem

import (
	"math"
	"testing"
)

// FuzzMaxMin decodes arbitrary bytes into a bounded network + flow set
// and requires the event-driven solver to match MaxMinReference
// Float64bits-for-Float64bits. Magnitudes are bounded the same way as
// the property tests (see randInstance): the 1e-9 freeze epsilon is a
// shared semantic of both implementations, and inputs whose residual
// rounding error exceeds it can stall either one.
func FuzzMaxMin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 10, 20, 30, 2, 0, 1, 2, 50, 0, 4, 1, 1, 0, 255, 8, 2})
	f.Add([]byte{1, 0, 1, 1, 0, 0, 0, 0})
	// Around the solver's fits test: three flows (a weighted one over both
	// links, a Greedy one under a Limit, one crossing link 1 twice) whose
	// caps sum to 98 of 100 Mbps on link 0 and to 40 on link 1, which has
	// room to spare (44), exactly that (40), or less (36).
	for _, cap1 := range []byte{11, 10, 9} {
		f.Add([]byte{1, 25, cap1, 3, 2, 0, 1, 10, 1, 1, 0, 4, 1, 0, 0, 0, 0, 39, 1, 2, 1, 1, 5, 1, 1, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}

		n := New()
		links := 1 + int(next()%12)
		for l := 0; l < links; l++ {
			if _, err := n.AddLink("l", float64(next())*4); err != nil {
				t.Fatal(err)
			}
		}
		flows := make([]Flow, int(next()%48))
		for i := range flows {
			hops := int(next() % 4)
			path := make([]LinkID, 0, hops)
			for h := 0; h < hops; h++ {
				path = append(path, LinkID(int(next())%links))
			}
			fl := Flow{Path: path, Demand: float64(next()) * 2}
			if next()%4 == 0 {
				fl.Demand = Greedy
			}
			if next()%3 == 0 {
				fl.Limit = float64(next()) * 2
			}
			if next()%2 == 0 {
				fl.Weight = math.Ldexp(1, int(next()%7)-3) // 1/8 .. 8
			}
			flows[i] = fl
		}

		want, err := n.MaxMinReference(flows)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		var s Solver
		got, err := s.MaxMin(n, flows, nil)
		if err != nil {
			t.Fatalf("solver: %v", err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("flow %d: fast %v (%#x) != reference %v (%#x)",
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
