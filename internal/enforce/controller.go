package enforce

import (
	"fmt"

	"cloudmirror/internal/netem"
)

// Controller is the dynamic half of the enforcement prototype: the
// periodic control loop ElasticSwitch runs at every hypervisor. Each
// control period it re-partitions guarantees over the currently active
// VM pairs (GP), computes work-conserving target rates (RA), and moves
// each pair's rate limiter a step toward its target — the smoothed
// convergence that headroom-probing rate limiters exhibit in practice.
//
// Between control decisions the network behaves like TCP under the
// current limiters: flows get a guarantee-weighted max-min share. The
// controller therefore exposes both the limits it sets and the rates
// flows actually achieve each period, so tests and experiments can
// examine transients (e.g., a burst of new intra-tier senders must not
// break an established trunk guarantee even before limits converge).
//
// All per-period state — the limiter table, the RA scratch, the
// achieved-rates solver — is reused across Steps, so a steady pair
// population is enforced with zero allocations per period.
type Controller struct {
	net   *netem.Network
	gp    Partitioner
	alpha float64

	limits     limiterStore
	ra         RA
	solver     netem.Solver
	guarantees []float64
	newLimits  []float64
	flows      []netem.Flow
	rates      []float64
}

// NewController returns a controller over the network using the given
// guarantee partitioner. alpha in (0,1] is the per-period convergence
// step of each rate limiter toward its RA target; 1 jumps immediately
// (pure steady state), smaller values model gradual probing.
func NewController(net *netem.Network, gp Partitioner, alpha float64) *Controller {
	if alpha <= 0 || alpha > 1 {
		panic("enforce: alpha must be in (0,1]")
	}
	return &Controller{net: net, gp: gp, alpha: alpha}
}

// Limit returns the current rate limit installed for a pair (0 if the
// pair has not been seen).
func (c *Controller) Limit(src, dst int) float64 {
	v, _ := c.limits.get([2]int{src, dst})
	return v
}

// Step runs one control period for the given active pairs and returns
// the rates the flows achieve during the period. The returned slice is
// controller-owned scratch, valid until the next Step.
//
// The sequence per period mirrors ElasticSwitch: (1) GP recomputes
// per-pair guarantees from the active communication pattern; (2) RA
// computes work-conserving targets; (3) each limiter moves alpha of the
// way from its current limit toward the target (new pairs start at their
// guarantee); (4) traffic flows under the new limits, sharing bottleneck
// capacity in proportion to guarantees (TCP with guarantee-weighted
// aggressiveness). Pairs absent from the input are forgotten.
func (c *Controller) Step(pairs []Pair, paths [][]netem.LinkID) ([]float64, error) {
	if len(paths) != len(pairs) {
		return nil, fmt.Errorf("%w: %d paths for %d pairs", netem.ErrBadInput, len(paths), len(pairs))
	}
	c.guarantees = c.gp.AppendPairGuarantees(c.guarantees[:0], pairs)
	targets, err := c.ra.Alloc(c.net, pairs, paths, c.guarantees)
	if err != nil {
		return nil, err
	}

	// Update limiters toward targets: read every previous limit first,
	// then advance the generation and write, so a pair listed twice sees
	// the pre-period value both times (map-semantics compatibility).
	c.newLimits = c.newLimits[:0]
	for i, pr := range pairs {
		cur, seen := c.limits.get([2]int{pr.Src, pr.Dst})
		if !seen {
			// A new pair starts at its guarantee: ElasticSwitch grants
			// the guarantee immediately and probes for more.
			cur = c.guarantees[i]
		}
		c.newLimits = append(c.newLimits, cur+c.alpha*(targets[i]-cur))
	}
	c.limits.advance()
	for i, pr := range pairs {
		c.limits.set([2]int{pr.Src, pr.Dst}, c.newLimits[i])
	}

	// Achieved rates this period: guarantee-weighted max-min under the
	// installed limits.
	c.flows = c.flows[:0]
	for i, pr := range pairs {
		lim, _ := c.limits.get([2]int{pr.Src, pr.Dst})
		c.flows = append(c.flows, netem.Flow{
			Path:   paths[i],
			Demand: pr.Demand,
			Limit:  lim,
			Weight: c.guarantees[i] + 1,
		})
	}
	c.rates, err = c.solver.MaxMin(c.net, c.flows, c.rates[:0])
	return c.rates, err
}
