package tag

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactEdgeCut is Eq. 1 for one edge in exact rational arithmetic,
// written from the paper's formula rather than from edgeCut's branches:
// out = min(N_X(from)·S, N_X̄(to)·R), in = min(N_X̄(from)·S, N_X(to)·R), a
// self-loop min(N_X, N_X̄)·SR both ways, and an unbounded external tier
// never the binding side of a min.
func exactEdgeCut(g *Graph, e Edge, inside []int) (out, in *big.Rat) {
	mul := func(n int, rate float64) *big.Rat {
		return new(big.Rat).Mul(big.NewRat(int64(n), 1), new(big.Rat).SetFloat64(rate))
	}
	minRat := func(a, b *big.Rat) *big.Rat {
		if b != nil && (a == nil || b.Cmp(a) < 0) {
			return b
		}
		return a
	}
	from, to := g.tiers[e.From], g.tiers[e.To]
	if e.SelfLoop() {
		nx := inside[e.From]
		h := mul(min(nx, from.N-nx), e.S)
		return h, h
	}
	// nil stands for +Inf: the outside part of an unbounded external tier.
	var rcvOutside, sndOutside *big.Rat
	if !(to.External && to.N == 0) {
		rcvOutside = mul(to.N-inside[e.To], e.R)
	}
	if !(from.External && from.N == 0) {
		sndOutside = mul(from.N-inside[e.From], e.S)
	}
	return minRat(mul(inside[e.From], e.S), rcvOutside), minRat(mul(inside[e.To], e.R), sndOutside)
}

// TestCutConcaveInK checks the fact bandwidthFit's two-probe zero proof
// rests on: with every other count fixed, the cut of a subtree is a
// concave function of the number k of tier-t VMs inside it, per
// direction — cut(k+1) − cut(k) never increases — for every shape of edge
// touching t (self-loop; trunk from t or into t whose other end is an
// internal tier, a bounded external or an unbounded external) and for
// their sums. Concavity is checked in exact arithmetic; the float cut the
// placer computes is checked to sit within 1e-9 relative of the exact one.
func TestCutConcaveInK(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rate := func() float64 { return math.Round(r.Float64()*2e6) / 1e3 } // 0–2000 Mbps, three decimals
	for iter := 0; iter < 400; iter++ {
		g := New("concave")
		tt := g.AddTier("t", 1+r.Intn(40))
		other := g.AddTier("other", 1+r.Intn(40))
		bounded := g.AddExternal("bounded", 1+r.Intn(20))
		unbounded := g.AddExternal("unbounded", 0)
		// One edge of every shape first, then a random mix (parallel and
		// repeated edges included).
		g.AddSelfLoop(tt, rate())
		for _, u := range []int{other, bounded, unbounded} {
			g.AddEdge(tt, u, rate(), rate())
			g.AddEdge(u, tt, rate(), rate())
		}
		shapes := len(g.edges)
		for extra := r.Intn(6); extra > 0; extra-- {
			if e := g.edges[r.Intn(shapes)]; e.SelfLoop() {
				g.AddSelfLoop(e.From, rate())
			} else {
				g.AddEdge(e.From, e.To, rate(), rate())
			}
		}
		g.AddSelfLoop(other, rate()) // does not touch t: constant in k

		inside := make([]int, g.Tiers())
		inside[other] = r.Intn(g.TierSize(other) + 1)

		n := g.TierSize(tt)
		// cuts[j][k]: j < len(edges) one edge's (out, in); the last entry the sum over all edges.
		type pair struct{ out, in *big.Rat }
		series := make([][]pair, len(g.edges)+1)
		for k := 0; k <= n; k++ {
			inside[tt] = k
			sumOut, sumIn := new(big.Rat), new(big.Rat)
			for j, e := range g.edges {
				o, i := exactEdgeCut(g, e, inside)
				series[j] = append(series[j], pair{o, i})
				sumOut.Add(sumOut, o)
				sumIn.Add(sumIn, i)
			}
			series[len(g.edges)] = append(series[len(g.edges)], pair{sumOut, sumIn})

			fo, fi := g.Cut(inside)
			eo, _ := sumOut.Float64()
			ei, _ := sumIn.Float64()
			if math.Abs(fo-eo) > 1e-9*(1+eo) || math.Abs(fi-ei) > 1e-9*(1+ei) {
				t.Fatalf("iter %d k=%d: float cut (%g, %g) is not the exact cut (%g, %g)", iter, k, fo, fi, eo, ei)
			}
		}
		for j, s := range series {
			for k := 1; k < n; k++ {
				// second difference s[k+1] − 2·s[k] + s[k−1] ≤ 0
				for dir, get := range []func(pair) *big.Rat{
					func(p pair) *big.Rat { return p.out },
					func(p pair) *big.Rat { return p.in },
				} {
					d2 := new(big.Rat).Add(get(s[k+1]), get(s[k-1]))
					d2.Sub(d2, new(big.Rat).Add(get(s[k]), get(s[k])))
					if d2.Sign() > 0 {
						t.Fatalf("iter %d: %s: series %d of %d edges (last is their sum), direction %d: cut not concave at k=%d (second difference %s)",
							iter, g, j, len(g.edges), dir, k, d2.FloatString(6))
					}
				}
			}
		}
	}
}
