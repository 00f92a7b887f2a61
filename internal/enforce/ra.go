package enforce

import (
	"fmt"

	"cloudmirror/internal/netem"
)

// AppendPartitioner is the scratch-reusing variant of Partitioner:
// guarantees are appended to a caller-supplied buffer and the
// partitioner reuses its internal counting state across calls. Every
// partitioner in this package implements it; callers that partition
// repeatedly use it when available so they allocate nothing in steady
// state. Like PairGuarantees, the result is a pure function of the
// deployment and the ordered (Src, Dst) sequence — never of Pair.Demand.
type AppendPartitioner interface {
	Partitioner
	// AppendPairGuarantees appends one guarantee per pair, in order, to
	// dst and returns the extended slice.
	AppendPairGuarantees(dst []float64, pairs []Pair) []float64
}

// AppendGuarantees computes gp's pair guarantees into dst (appending),
// using the zero-allocation path when gp implements AppendPartitioner
// and falling back to PairGuarantees otherwise.
func AppendGuarantees(dst []float64, gp Partitioner, pairs []Pair) []float64 {
	if ap, ok := gp.(AppendPartitioner); ok {
		return ap.AppendPairGuarantees(dst, pairs)
	}
	return append(dst, gp.PairGuarantees(pairs)...)
}

// RA is a reusable work-conserving rate allocator: the same two-phase
// ElasticSwitch computation as WorkConservingRates, holding its
// residual-capacity vector, flow list, and max-min solver as scratch so
// repeated allocations on the same network perform zero steady-state
// allocations. The zero value is ready to use; an RA is not safe for
// concurrent use.
type RA struct {
	solver  netem.Solver
	resCaps []float64
	base    []float64
	flows   []netem.Flow
	extra   []float64
	rates   []float64
}

// Alloc computes work-conserving rates for the pairs given their
// precomputed per-pair guarantees: each pair first receives
// min(demand, guarantee), then the remaining demands compete for
// leftover capacity in a guarantee-weighted max-min (with a small
// weight floor so zero-guarantee flows still scavenge).
//
// Only links appearing on the given paths are read from the network, so
// a caller solving one connected component at a time gets exactly the
// rates a whole-network solve would produce for those pairs. The
// returned slice is RA-owned scratch, valid until the next Alloc.
func (ra *RA) Alloc(n *netem.Network, pairs []Pair, paths [][]netem.LinkID, guarantees []float64) ([]float64, error) {
	if len(paths) != len(pairs) {
		return nil, fmt.Errorf("%w: %d paths for %d pairs", netem.ErrBadInput, len(paths), len(pairs))
	}
	if len(guarantees) != len(pairs) {
		return nil, fmt.Errorf("%w: %d guarantees for %d pairs", netem.ErrBadInput, len(guarantees), len(pairs))
	}
	for i, path := range paths {
		for _, l := range path {
			if int(l) < 0 || int(l) >= n.Links() {
				return nil, fmt.Errorf("%w: flow %d references unknown link %d (network has %d)",
					netem.ErrBadInput, i, l, n.Links())
			}
		}
	}

	// Reset the residual capacities this allocation will touch; entries
	// for unrelated links may hold stale values from earlier calls, but
	// nothing below ever reads them.
	if len(ra.resCaps) < n.Links() {
		ra.resCaps = append(ra.resCaps[:0], make([]float64, n.Links())...)
	}
	for _, path := range paths {
		for _, l := range path {
			ra.resCaps[l] = n.Capacity(l)
		}
	}

	// Phase 1: hand out guarantees (bounded by demand).
	// overflowEps tolerates the float slack admission control itself
	// allows (topology reservations may overshoot a link by up to 1e-6
	// Mbps); only a meaningful overflow indicates a violated invariant.
	const overflowEps = 1e-6
	ra.base = ra.base[:0]
	for i, pr := range pairs {
		b := min(pr.Demand, guarantees[i])
		ra.base = append(ra.base, b)
		for _, l := range paths[i] {
			ra.resCaps[l] -= b
			if ra.resCaps[l] < -overflowEps {
				return nil, fmt.Errorf("%w: guarantees overflow link %s — admission control violated", ErrInvariant, n.Name(l))
			}
			if ra.resCaps[l] < 0 {
				ra.resCaps[l] = 0
			}
		}
	}

	// Phase 2: weighted max-min over the residual capacity.
	const weightFloor = 1.0 // Mbps-equivalent scavenger weight
	ra.flows = ra.flows[:0]
	for i, pr := range pairs {
		ra.flows = append(ra.flows, netem.Flow{
			Path:   paths[i],
			Demand: pr.Demand - ra.base[i],
			Weight: guarantees[i] + weightFloor,
		})
	}
	var err error
	ra.extra, err = ra.solver.MaxMinCaps(ra.resCaps, ra.flows, ra.extra[:0])
	if err != nil {
		return nil, err
	}

	ra.rates = ra.rates[:0]
	for i := range pairs {
		ra.rates = append(ra.rates, ra.base[i]+ra.extra[i])
	}
	return ra.rates, nil
}

// WorkConservingRates computes the steady-state rates of the pairs on a
// fluid network: each pair first receives min(demand, guarantee), then
// the remaining demands compete for leftover capacity in a weighted
// max-min (weight = pair guarantee, with a small floor so zero-guarantee
// flows still scavenge), the ElasticSwitch RA steady state.
//
// paths[i] is the link path of pairs[i]. This is the convenience form;
// hot paths hold an RA (and precomputed guarantees) to reuse scratch.
func WorkConservingRates(n *netem.Network, pairs []Pair, paths [][]netem.LinkID, gp Partitioner) (*Allocation, error) {
	if len(paths) != len(pairs) {
		return nil, fmt.Errorf("%w: %d paths for %d pairs", netem.ErrBadInput, len(paths), len(pairs))
	}
	guarantees := AppendGuarantees(nil, gp, pairs)
	var ra RA
	rates, err := ra.Alloc(n, pairs, paths, guarantees)
	if err != nil {
		return nil, err
	}
	return &Allocation{Rates: append([]float64(nil), rates...), Guarantees: guarantees}, nil
}
