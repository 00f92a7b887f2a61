package netem

import (
	"math"
	"testing"
)

// FuzzMaxMin decodes arbitrary bytes into a bounded network + flow set
// and requires the solver's answer to pass Check. Magnitudes are bounded
// the same way as the property tests (see randInstance). A capacity byte
// of 255 is an unbounded link; an unbounded flow whose links are all
// unbounded has no finite max-min rate, so such an input is outside
// Check's domain (TestDifferentialFitsShortcut pins what the solver
// returns there) and is skipped.
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
	// Edge shapes inside Check's domain: a zero-capacity link under a
	// bounded flow and a weighted Greedy one; a Greedy flow crossing a
	// link twice beside a limited flow; an unbounded link carrying only
	// bounded flows, one of them Greedy under a Limit and crossing a
	// finite link too.
	f.Add([]byte{0, 0, 2, 1, 0, 5, 1, 1, 1, 1, 0, 0, 0, 1, 0, 5})
	f.Add([]byte{1, 25, 10, 2, 2, 1, 1, 0, 0, 1, 1, 2, 0, 1, 50, 1, 0, 15, 1})
	f.Add([]byte{1, 255, 50, 3, 1, 0, 100, 1, 1, 1, 2, 0, 1, 0, 0, 0, 60, 1, 1, 0, 7, 2, 1, 0, 6})
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
			c := float64(next()) * 4
			if c == 255*4 {
				c = math.Inf(1)
			}
			if _, err := n.AddLink("l", c); err != nil {
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

		for _, fl := range flows {
			unbounded := len(fl.Path) > 0 && math.IsInf(fl.cap(), 1)
			for _, l := range fl.Path {
				unbounded = unbounded && math.IsInf(n.caps[l], 1)
			}
			if unbounded {
				return
			}
		}
		var s Solver
		got, err := s.MaxMin(n, flows, nil)
		if err != nil {
			t.Fatalf("solver: %v", err)
		}
		if err := Check(n.caps, flows, got); err != nil {
			t.Fatal(err)
		}
	})
}
