package sim

import (
	"fmt"
	"math"
	"math/rand"

	"cloudmirror/guarantee"
	"cloudmirror/internal/dataplane"
	"cloudmirror/internal/enforce"
	"cloudmirror/internal/tag"
)

// enforceMaxPairs bounds the active flows one tenant contributes to a
// control period, so enforcement cost stays linear in tenants rather
// than quadratic in their VM counts. Pairs beyond the cap are
// stride-sampled deterministically.
const enforceMaxPairs = 32

// ChurnEnforcement is the enforcement slice of a churn run: the
// outcome of the interleaved GP/RA control periods.
type ChurnEnforcement struct {
	// Periods counts the control periods run; Iterations the total
	// convergence iterations they took.
	Periods, Iterations int
	// MinRatio is the worst pair's achieved / min(demand, guarantee)
	// over all periods — the end-to-end guarantee invariant: >= 1 (up
	// to rounding) means no admitted tenant's guarantee was ever
	// broken, even under churn and resizes.
	MinRatio float64
	// Tenants and Pairs describe the final control period.
	Tenants, Pairs int
	// GuaranteedMbps, AchievedMbps, and SpareMbps are the final
	// period's fleet totals: partitioned guarantees, achieved rates,
	// and the work-conserving surplus on top of demand-bounded
	// guarantees.
	GuaranteedMbps, AchievedMbps, SpareMbps float64
	// Events are the dataplane's lifecycle counters at the end of the
	// run (after the drain): the incremental-update audit trail.
	Events dataplane.Counters
}

// demandPair is one drawable flow of a demand plan: a tenant-local VM
// pair and its static hose bound.
type demandPair struct {
	s, d  int
	bound float64
}

// demandPlan caches the deterministic half of a tenant's demand draws
// — the deployment's candidate VM pairs (deduplicated, stride-capped
// at enforceMaxPairs) with their hose bounds, a pure function of the
// tenant's graph. Plans are built once per (tenant, graph) and
// invalidated by resizes, so a control period only draws the random
// load factors.
type demandPlan struct {
	pairs []demandPair
}

// newDemandPlan enumerates the graph's TAG-permitted pairs.
func newDemandPlan(g *tag.Graph) *demandPlan {
	dep := enforce.NewDeployment(g)
	type pair struct{ s, d int }
	var candidates []pair
	seen := make(map[pair]bool)
	for _, e := range g.Edges() {
		for _, s := range dep.TierVMs(e.From) {
			for _, d := range dep.TierVMs(e.To) {
				if s == d || seen[pair{s, d}] {
					continue
				}
				seen[pair{s, d}] = true
				candidates = append(candidates, pair{s, d})
			}
		}
	}
	if len(candidates) > enforceMaxPairs {
		sampled := make([]pair, enforceMaxPairs)
		for i := range sampled {
			sampled[i] = candidates[i*len(candidates)/enforceMaxPairs]
		}
		candidates = sampled
	}
	p := &demandPlan{}
	for _, c := range candidates {
		snd, rcv, ok := dep.PairGuarantee(c.s, c.d)
		bound := math.Min(snd, rcv)
		if !ok || bound <= 0 {
			continue
		}
		p.pairs = append(p.pairs, demandPair{s: c.s, d: c.d, bound: bound})
	}
	return p
}

// draw produces the plan's flows for one control period: each pair's
// offered load is a random multiple of its hose bound — some flows
// under their guarantee, some bursting past it, so both GP
// partitioning and work-conserving redistribution are exercised. All
// randomness comes from r.
func (p *demandPlan) draw(r *rand.Rand) []guarantee.Demand {
	factors := []float64{0.25, 0.5, 1, 2}
	demands := make([]guarantee.Demand, len(p.pairs))
	for i, pr := range p.pairs {
		demands[i] = guarantee.Demand{
			Src:  pr.s,
			Dst:  pr.d,
			Mbps: factors[r.Intn(len(factors))] * pr.bound,
		}
	}
	return demands
}

// controlPeriod declares fresh demands for every live tenant and runs
// the GP/RA loop to convergence, folding the outcome into agg.
func controlPeriod(r *rand.Rand, enf *guarantee.Enforcement, live []*churnTenant, agg *ChurnEnforcement) error {
	for _, ten := range live {
		if ten.plan == nil {
			ten.plan = newDemandPlan(ten.graph)
		}
		if err := enf.SetDemand(ten.grant, ten.plan.draw(r)); err != nil {
			return fmt.Errorf("sim: declaring demands: %w", err)
		}
	}
	rep, err := enf.Converge(0, 0)
	if err != nil {
		return fmt.Errorf("sim: enforcement control period: %w", err)
	}
	agg.Periods++
	agg.Iterations += rep.Iterations
	if rep.MinRatio < agg.MinRatio {
		agg.MinRatio = rep.MinRatio
	}
	agg.Tenants = rep.Tenants
	agg.Pairs = rep.Pairs
	agg.GuaranteedMbps = rep.GuaranteedMbps
	agg.AchievedMbps = rep.AchievedMbps
	agg.SpareMbps = rep.SpareMbps
	return nil
}
