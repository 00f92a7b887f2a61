package netem

import (
	"errors"
	"fmt"
	"math"
)

// errNotMaxMin is wrapped by every Check failure but malformed input.
var errNotMaxMin = errors.New("netem: not the max-min allocation")

// Check certifies that rates is the weighted max-min fair allocation of
// flows over links of capacities caps, the answer MaxMin defines, in
// O(Σ path lengths + links) and without solving. A flow without a path
// or a positive cap must have the rate MaxMin gives it unsolved
// (max(cap, 0), and 0 if it is pathless and unbounded). Every other rate
// must be finite and in [0, cap], and either equal the cap or cross a
// saturated link on which it is at the top level: no flow j crossing the
// link exceeds weight_j × its rate/weight. No link may carry more than
// its capacity. A link listed twice on a path carries the flow twice.
//
// Each link has one tolerance, tol = 1e-9 + (deg+8)·2⁻⁵²·(capacity +
// load), for deg flow occurrences whose rates sum to load: Solver's
// freeze epsilon plus the rounding of a deg-term fold. A link within tol
// of full is saturated, and a flow may exceed the top level by tol. An
// infinite link never saturates. Outside the domain (a cap event
// cap/weight that overflows, an unbounded flow on unbounded links)
// nothing passes. A failure names the flow and the link; malformed input
// wraps ErrBadInput.
func Check(caps []float64, flows []Flow, rates []float64) error {
	if len(rates) != len(flows) {
		return fmt.Errorf("%w: %d rates for %d flows", ErrBadInput, len(rates), len(flows))
	}
	load := make([]float64, len(caps))
	tol := make([]float64, len(caps))   // occurrence counts, then tolerances
	level := make([]float64, len(caps)) // max over crossing flows of (rate − tol)/weight
	for i, f := range flows {
		for _, l := range f.Path {
			if int(l) < 0 || int(l) >= len(caps) {
				return fmt.Errorf("%w: flow %d references unknown link %d (network has %d)",
					ErrBadInput, i, l, len(caps))
			}
		}
		c, r := f.cap(), rates[i]
		if len(f.Path) == 0 || c <= 0 {
			want := math.Max(c, 0)
			if len(f.Path) == 0 && math.IsInf(c, 1) {
				want = 0
			}
			if r != want {
				return fmt.Errorf("%w: flow %d never competes, so its rate is %v, not %v", errNotMaxMin, i, want, r)
			}
		} else if !(0 <= r && r <= c && r <= math.MaxFloat64) {
			return fmt.Errorf("%w: flow %d has rate %v outside [0, cap %v]", errNotMaxMin, i, r, c)
		}
		for _, l := range f.Path {
			load[l] += r
			tol[l]++
		}
	}
	for l, n := range tol {
		tol[l] = 1e-9 + (n+8)*0x1p-52*(caps[l]+load[l])
	}
	for i, f := range flows {
		for _, l := range f.Path {
			level[l] = math.Max(level[l], (rates[i]-tol[l])/f.weight())
		}
	}
	for i, f := range flows {
		c, r := f.cap(), rates[i]
		ok := len(f.Path) == 0 || c <= 0 || r == c
		tight := LinkID(-1) // the path's link with the least headroom
		for _, l := range f.Path {
			if load[l] > caps[l]+tol[l] {
				return fmt.Errorf("%w: flow %d crosses link %d, loaded to %v over its capacity %v",
					errNotMaxMin, i, l, load[l], caps[l])
			}
			// caps−tol is NaN on an infinite link: never saturated.
			ok = ok || load[l] >= caps[l]-tol[l] && r/f.weight() >= level[l]
			if tight < 0 || caps[l]-load[l] < caps[tight]-load[tight] {
				tight = l
			}
		}
		if !ok {
			return fmt.Errorf("%w: flow %d at %v is below its cap %v and bottlenecked nowhere; its tightest link %d carries %v of %v",
				errNotMaxMin, i, r, c, tight, load[tight], caps[tight])
		}
	}
	return nil
}
