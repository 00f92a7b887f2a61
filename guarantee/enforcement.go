package guarantee

import (
	"cloudmirror/internal/dataplane"
	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
)

// Enforcement vocabulary, re-exported so consumers of the public API
// never import the internal dataplane for its types.
type (
	// Demand is one active flow of a tenant: an ordered pair of
	// tenant-local VM IDs (tier-major deployment order) and its offered
	// load in Mbps (guarantee.Greedy for a backlogged source).
	Demand = dataplane.Demand
	// EnforcementCounters are a dataplane's monotonic lifecycle-event
	// counters (admitted/resized/released/skipped, fabric builds).
	EnforcementCounters = dataplane.Counters
	// ShardEnforcement is one shard's control-period outcome:
	// shard-wide and per-tenant aggregates.
	ShardEnforcement = dataplane.StepStats
	// TenantEnforcement is one tenant's slice of a control period:
	// aggregates over its enforced pairs, and how many there are.
	TenantEnforcement = dataplane.TenantStats
	// PairEnforcement is one flow's enforcement outcome, as
	// Enforcement.Pairs reports it.
	PairEnforcement = dataplane.PairStats
)

// Greedy marks a Demand whose source is always backlogged.
var Greedy = dataplane.GreedyDemand

// EnforcementReport aggregates one control period (or convergence run)
// across every shard's dataplane. It carries aggregates only — per-pair
// state is what does not scale with the fleet; Enforcement.Pairs serves
// one grant's flows on demand.
type EnforcementReport struct {
	// PerShard holds each shard's outcome, indexed by shard ID.
	PerShard []*ShardEnforcement
	// Iterations is the total number of control periods run (summed
	// over shards for a Converge call; Shards() for a plain Step).
	Iterations int
	// Tenants, Pairs, and Colocated count tenants under enforcement,
	// enforced fabric-crossing flows, and intra-server flows.
	Tenants, Pairs, Colocated int
	// GuaranteedMbps, BaseMbps, AchievedMbps, and SpareMbps aggregate
	// the per-shard sums: partitioned guarantees, demand-bounded
	// guarantees, achieved rates, and the work-conserving surplus.
	GuaranteedMbps, BaseMbps, AchievedMbps, SpareMbps float64
	// MinRatio is the worst pair's achieved / min(demand, guarantee)
	// across the fleet — >= 1 (up to rounding) when every guarantee is
	// honored. 1 when nothing is being enforced.
	MinRatio float64
	// Components counts the components — sets of tenants connected
	// through contended links — of this report's (final) period, and
	// Solved how many of them it re-solved; the rest were at their fixed
	// point and report cached outcomes.
	Solved, Components int
}

// Enforcement is the runtime half of a Service: one dataplane driver
// per shard, fed by the Grant lifecycle (admit installs a tenant's
// deployment, resize patches it, release removes it — no caller-side
// wiring). Obtain it from Service.Enforcement; nil when the service
// was built without WithEnforcement.
type Enforcement struct {
	drivers []*dataplane.Driver
}

// Shards returns the number of per-shard dataplanes.
func (e *Enforcement) Shards() int { return len(e.drivers) }

// Step runs one control period on every shard's dataplane: GP
// re-partitions each tenant's guarantees over its active flows, RA
// computes work-conserving targets, and rate limiters move one alpha
// step toward them. Shards share no state, so their periods run in
// parallel; outcomes fold in shard order, keeping the report a
// deterministic function of the dataplane state.
func (e *Enforcement) Step() (*EnforcementReport, error) {
	return e.run(func(d *dataplane.Driver) (*ShardEnforcement, int, error) {
		st, err := d.Step()
		return st, 1, err
	})
}

// Converge runs control periods on every shard until rates stabilize
// (eps movement between periods; maxIters caps each shard's loop, 0
// meaning 50 and eps 0 meaning 1e-6) and reports the final state plus
// the total iterations spent. Shards converge in parallel.
func (e *Enforcement) Converge(maxIters int, eps float64) (*EnforcementReport, error) {
	return e.run(func(d *dataplane.Driver) (*ShardEnforcement, int, error) {
		return d.Converge(maxIters, eps)
	})
}

// run fans one control operation out across the per-shard drivers and
// folds the outcomes in shard order.
func (e *Enforcement) run(op func(*dataplane.Driver) (*ShardEnforcement, int, error)) (*EnforcementReport, error) {
	type outcome struct {
		st    *ShardEnforcement
		iters int
	}
	outs, err := parallel.Map(0, len(e.drivers), func(i int) (outcome, error) {
		st, iters, err := op(e.drivers[i])
		return outcome{st, iters}, err
	})
	if err != nil {
		return nil, err
	}
	rep := &EnforcementReport{MinRatio: 1}
	for _, o := range outs {
		rep.add(o.st, o.iters)
	}
	return rep, nil
}

// add folds one shard's outcome into the report.
func (r *EnforcementReport) add(st *ShardEnforcement, iters int) {
	r.PerShard = append(r.PerShard, st)
	r.Iterations += iters
	r.Tenants += len(st.Tenants)
	r.Pairs += st.Pairs
	r.Colocated += st.Colocated
	r.GuaranteedMbps += st.GuaranteedMbps
	r.BaseMbps += st.BaseMbps
	r.AchievedMbps += st.AchievedMbps
	r.SpareMbps += st.SpareMbps
	if st.MinRatio < r.MinRatio {
		r.MinRatio = st.MinRatio
	}
	r.Solved += st.Solved
	r.Components += st.Components
}

// SetDemand declares a grant's active flows for subsequent control
// periods, replacing any previous declaration; each (Src, Dst) pair
// may appear at most once. Tenants with no declaration default to
// every TAG-permitted pair backlogged; an empty declaration (nil
// included) is a declaration — the tenant is idle. A resize
// resets the declaration to that default (the VM set changed), so
// callers re-declare after resizing. The grant must have been issued
// by the service this Enforcement belongs to.
func (e *Enforcement) SetDemand(g Grant, demands []Demand) error {
	d, key, err := e.driverOf(g)
	if err != nil {
		return err
	}
	return d.SetDemand(key, demands)
}

// Pairs reports one grant's flows — the per-pair detail a report leaves
// out — one row per declared demand in (Src, Dst) order; an undeclared
// grant reports the backlogged default. Right after Step or Converge
// the rows are that period's outcome. Between periods they are the
// declaration as it stands: Demand follows SetDemand at once, Guarantee
// and Rate stay those of the last period that solved the pair, and are
// zero after a resize or a declaration naming other pairs until the
// next period has solved the new flows. Colocated (intra-server) pairs
// are not enforced: Guarantee 0, Rate equal to Demand — +Inf for a
// Greedy one. The slice is the caller's. The grant must have been
// issued by the service this Enforcement belongs to, and be live.
func (e *Enforcement) Pairs(g Grant) ([]PairEnforcement, error) {
	d, key, err := e.driverOf(g)
	if err != nil {
		return nil, err
	}
	return d.Pairs(key)
}

// driverOf resolves a grant to its shard's dataplane and its key there.
func (e *Enforcement) driverOf(g Grant) (*dataplane.Driver, int64, error) {
	if e == nil {
		// Service.Enforcement() returns nil without WithEnforcement;
		// chained calls must degrade to a typed rejection, not a panic.
		return nil, 0, place.Rejectf("enforce", Unsupported, "enforcement not enabled on this service")
	}
	gr, ok := g.(*grant)
	if !ok || gr.svc.enf != e {
		// Grant keys are per-shard sequences, so a grant from another
		// service could silently collide with an unrelated tenant here;
		// identity of the issuing service is the only safe check.
		return nil, 0, place.Rejectf("enforce", InvalidRequest,
			"grant was not issued by this service")
	}
	return e.drivers[gr.ten.Shard().ID()], gr.ten.Key(), nil
}

// SolveStats sums the per-shard incremental-stepping stats of the most
// recent control period: how many components — sets of tenants
// connected through contended links, links whose declared demand can
// reach their capacity — were re-solved versus how many exist. Tenants
// that only share slack links stay in separate components; undeclared
// and Greedy flows make every link they cross contended. Solved <
// components means the stepper skipped components at their fixed point
// and reported their cached outcome; under FullRecompute the two are
// always equal. The same numbers ride on every report
// (EnforcementReport.Solved, .Components), which is where to read them
// when several callers step concurrently: this accessor describes
// whichever period ran last.
func (e *Enforcement) SolveStats() (solved, components int) {
	for _, d := range e.drivers {
		s, c := d.SolveStats()
		solved += s
		components += c
	}
	return solved, components
}

// Counters sums the per-shard lifecycle-event counters — the audit
// trail proving the dataplane is updated incrementally (FabricBuilds
// equals the shard count: one image per driver, ever).
func (e *Enforcement) Counters() EnforcementCounters {
	var sum EnforcementCounters
	for _, d := range e.drivers {
		c := d.Counters()
		sum.Admitted += c.Admitted
		sum.Resized += c.Resized
		sum.Released += c.Released
		sum.Skipped += c.Skipped
		sum.FabricBuilds += c.FabricBuilds
	}
	return sum
}
