package sim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"cloudmirror/guarantee"
	"cloudmirror/internal/parallel"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// ChurnConfig describes one dynamic-churn simulation: a Poisson tenant
// arrival process with exponential lifetimes (optionally interleaved
// with elastic tier resizes), dispatched across a sharded cluster
// through the public guarantee.Service. Equal configs (including Seed)
// give byte-identical results at any Workers value.
type ChurnConfig struct {
	// Spec is the per-shard datacenter topology.
	Spec topology.Spec
	// NewPlacer constructs the algorithm under test on each shard's tree.
	NewPlacer func(*topology.Tree) place.Placer
	// Pool is the tenant template pool; arrivals sample it uniformly.
	Pool []*tag.Graph
	// Shards is the number of independent datacenter trees (at least 1).
	Shards int
	// Policy names the dispatch policy: "rr", "least", or "p2c"
	// (see cluster.NewPolicy). Empty means "rr".
	Policy string
	// Arrivals is the number of tenant arrival events to simulate.
	Arrivals int
	// Load is the target fleet-wide slot load in (0,1]; the arrival
	// rate is derived from it exactly as in Run, scaled by the summed
	// slot capacity of all shards.
	Load float64
	// MeanDwell is the mean tenant lifetime Td (simulated time units);
	// zero or negative means 1.
	MeanDwell float64
	// ResizeProb, when positive, interleaves elastic scaling with the
	// churn: after each arrival, with this probability a uniformly
	// chosen live tenant grows or shrinks one uniformly chosen tier by
	// a factor drawn from {0.5, 1.5, 2} through Grant.Resize. Zero (the
	// default) draws nothing from the RNG, so adding resize support
	// does not perturb resize-free workloads.
	ResizeProb float64
	// Enforce attaches the enforcement dataplane to the service and
	// interleaves work-conserving GP/RA control periods with the churn:
	// every EnforceEvery arrivals, each live tenant draws a fresh
	// demand matrix and the fleet's rates are converged. Demands come
	// from a dedicated RNG derived from Seed (like the policy RNG), so
	// attaching enforcement never perturbs the admission workload —
	// the same churn trace runs with and without it.
	Enforce bool
	// EnforceEvery is the control-period cadence in arrivals; 0 means
	// 16.
	EnforceEvery int
	// EnforceAlpha is the rate limiters' per-period convergence step in
	// (0,1]; 0 means 1.
	EnforceAlpha float64
	// HA is applied to every arriving tenant (zero value: none).
	HA place.HASpec
	// Seed drives all randomness: arrival spacing, pool sampling,
	// lifetimes, resize picks, and the p2c policy's sampling.
	Seed int64
	// Workers bounds the goroutines used for shard construction and the
	// final drain. It never changes results: the event loop itself is
	// serial, because every dispatch decision reads the shard loads the
	// previous decisions produced.
	Workers int
}

// ChurnShardStats is one shard's slice of a churn simulation.
type ChurnShardStats struct {
	// Admitted and Rejected are the shard's admission counters;
	// failover attempts count as rejections on each shard that refused.
	Admitted, Rejected int
	// Resized counts successful in-place tenant resizes on the shard.
	Resized int
	// LiveTenants is the shard's tenant count when the last arrival was
	// processed (before the final drain).
	LiveTenants int
	// ReservedGbps is the bandwidth those tenants held, summed over all
	// uplinks and both directions.
	ReservedGbps float64
	// Utilization is the time-averaged fraction of the shard's VM slots
	// occupied over the simulated duration — the steady-state occupancy
	// the dispatch policy achieved on this shard.
	Utilization float64
}

// ChurnResult aggregates a churn simulation's outcome. All fields are
// deterministic functions of the ChurnConfig: durations are simulated
// time, not wall clock.
type ChurnResult struct {
	// Placer and Policy identify the placement algorithm and dispatch
	// policy under test.
	Placer, Policy string
	// Shards is the fleet size.
	Shards int

	// Arrivals counts tenant arrival events; Admitted and Rejected
	// partition them (Rejected means every shard refused).
	Arrivals, Admitted, Rejected int
	// Departures counts tenants that left before the end of the run.
	Departures int
	// Resized and ResizeRejected partition the elastic-scaling events
	// (both zero when ResizeProb is zero): Resized counts committed
	// in-place resizes, ResizeRejected ones the fleet could not host.
	Resized, ResizeRejected int
	// Failovers counts placement attempts beyond each request's first
	// shard — how often the policy's first pick was wrong.
	Failovers int64

	// Duration is the simulated time spanned by the arrival process.
	Duration float64
	// AdmissionRate is the sustained admission rate: Admitted/Duration,
	// in tenants per simulated time unit.
	AdmissionRate float64
	// RejectionRatio is Rejected/Arrivals.
	RejectionRatio float64
	// Utilization is the fleet-wide time-averaged slot occupancy.
	Utilization float64

	// PerShard holds each shard's slice, indexed by shard ID.
	PerShard []ChurnShardStats

	// Enforcement reports the interleaved control periods' outcome; nil
	// unless the config set Enforce.
	Enforcement *ChurnEnforcement
}

// policySeed derives the dispatch-policy seed from a config seed,
// decoupling the policy RNG from the workload RNG so adding policy
// randomness never perturbs the arrival sequence.
func policySeed(seed int64) int64 { return seed ^ 0x5DEECE66D }

// enforceSeed derives the enforcement-demand seed from a config seed,
// decoupling the demand RNG from the workload RNG so attaching
// enforcement never perturbs the admission trace.
func enforceSeed(seed int64) int64 { return seed ^ 0x6D2B79F5 }

// churnTenant is one live tenant of a churn run: its grant, its
// current TAG (updated by resizes), its index in the live slice
// (for O(1) swap-removal on departure), and its cached enforcement
// demand plan (nil until first used; invalidated by resizes).
type churnTenant struct {
	grant guarantee.Grant
	graph *tag.Graph
	idx   int
	plan  *demandPlan
}

// churnDeparture is a scheduled tenant exit from a churn run. seq
// breaks simulated-time ties deterministically (insertion order).
type churnDeparture struct {
	at  float64
	seq int
	ten *churnTenant
}

type churnQueue []churnDeparture

func (q churnQueue) Len() int { return len(q) }
func (q churnQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q churnQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *churnQueue) Push(x any)   { *q = append(*q, x.(churnDeparture)) }
func (q *churnQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Churn runs a dynamic-churn simulation: cfg.Arrivals Poisson tenant
// arrivals with exponential lifetimes, each dispatched across
// cfg.Shards independent trees by the named policy, with failover
// through the remaining shards when the first pick rejects. With
// cfg.ResizeProb > 0, live tenants additionally grow and shrink tiers
// in place through the guarantee API's Resize.
//
// The event loop is serial and fully deterministic: equal configs give
// byte-identical results at any cfg.Workers value, which only bounds
// the goroutines building shards up front and draining live tenants at
// the end. Nothing in the output depends on wall clock or scheduling.
func Churn(cfg ChurnConfig) (*ChurnResult, error) {
	if len(cfg.Pool) == 0 {
		return nil, errors.New("sim: empty tenant pool")
	}
	if cfg.Arrivals <= 0 {
		return nil, errors.New("sim: Arrivals must be positive")
	}
	if cfg.Shards <= 0 {
		return nil, errors.New("sim: Shards must be positive")
	}
	opts := []guarantee.Option{
		guarantee.WithPlacer(cfg.NewPlacer),
		guarantee.WithShards(cfg.Shards),
		guarantee.WithPolicy(cfg.Policy),
		guarantee.WithSeed(policySeed(cfg.Seed)),
		guarantee.WithWorkers(cfg.Workers),
	}
	if cfg.Enforce {
		opts = append(opts, guarantee.WithEnforcement(guarantee.EnforcementConfig{Alpha: cfg.EnforceAlpha}))
	}
	svc, err := guarantee.New(cfg.Spec, opts...)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Arrival rate from the load formula, over the whole fleet's slots.
	meanDwell := cfg.MeanDwell
	if meanDwell <= 0 {
		meanDwell = 1
	}
	var meanSize float64
	for _, g := range cfg.Pool {
		meanSize += float64(g.VMs())
	}
	meanSize /= float64(len(cfg.Pool))
	var totalSlots float64
	loads := svc.Loads()
	for _, ld := range loads {
		totalSlots += float64(ld.SlotsTotal)
	}
	load := cfg.Load
	if load <= 0 {
		load = 1
	}
	lambda := load * totalSlots / (meanSize * meanDwell)

	r := rand.New(rand.NewSource(cfg.Seed))
	res := &ChurnResult{
		Placer:   svc.Name(),
		Policy:   svc.Policy(),
		Shards:   svc.Shards(),
		PerShard: make([]ChurnShardStats, svc.Shards()),
	}
	enforceEvery := cfg.EnforceEvery
	if enforceEvery <= 0 {
		enforceEvery = 16
	}
	var enforceRand *rand.Rand
	if cfg.Enforce {
		res.Enforcement = &ChurnEnforcement{MinRatio: 1}
		// A dedicated demand RNG, decoupled from the workload RNG the
		// same way the policy RNG is: attaching enforcement must not
		// perturb the admission trace.
		enforceRand = rand.New(rand.NewSource(enforceSeed(cfg.Seed)))
	}

	var (
		clock      float64
		departures churnQueue
		live       []*churnTenant
		seq        int
		// slotSeconds[s] integrates shard s's occupied slots over
		// simulated time, for the steady-state utilization report.
		slotSeconds = make([]float64, svc.Shards())
	)
	heap.Init(&departures)
	advance := func(to float64) {
		dt := to - clock
		for i, ld := range svc.Loads() {
			slotSeconds[i] += float64(ld.SlotsUsed) * dt
		}
		clock = to
	}
	unlive := func(ten *churnTenant) {
		last := len(live) - 1
		live[ten.idx] = live[last]
		live[ten.idx].idx = ten.idx
		live = live[:last]
	}

	for i := 0; i < cfg.Arrivals; i++ {
		next := clock + r.ExpFloat64()/lambda
		for len(departures) > 0 && departures[0].at <= next {
			d := heap.Pop(&departures).(churnDeparture)
			advance(d.at)
			d.ten.grant.Release()
			unlive(d.ten)
			res.Departures++
		}
		advance(next)

		g := cfg.Pool[r.Intn(len(cfg.Pool))]
		req := guarantee.Request{ID: int64(i), Graph: g, HA: cfg.HA}
		res.Arrivals++
		grant, err := svc.Admit(ctx, req)
		if err != nil {
			if !errors.Is(err, place.ErrRejected) {
				return nil, fmt.Errorf("sim: churn placement error: %w", err)
			}
			res.Rejected++
		} else {
			res.Admitted++
			seq++
			ten := &churnTenant{grant: grant, graph: g, idx: len(live)}
			live = append(live, ten)
			heap.Push(&departures, churnDeparture{clock + r.ExpFloat64()*meanDwell, seq, ten})
		}

		// Elastic scaling: with probability ResizeProb, one live tenant
		// changes one tier's size in place. Every draw below is from
		// the single workload RNG, so the event sequence — and through
		// it every admission decision — stays a pure function of the
		// config.
		if cfg.ResizeProb > 0 && len(live) > 0 && r.Float64() < cfg.ResizeProb {
			ten := live[r.Intn(len(live))]
			var resizable []int
			for t := 0; t < ten.graph.Tiers(); t++ {
				if !ten.graph.Tier(t).External {
					resizable = append(resizable, t)
				}
			}
			if len(resizable) > 0 {
				t := resizable[r.Intn(len(resizable))]
				factor := []float64{0.5, 1.5, 2}[r.Intn(3)]
				n := ten.graph.TierSize(t)
				newN := int(float64(n) * factor)
				if newN < 1 {
					newN = 1
				}
				if newN == n {
					newN = n + 1
				}
				ng, gerr := ten.graph.WithTierSize(t, newN)
				if gerr != nil {
					return nil, fmt.Errorf("sim: churn resize graph: %w", gerr)
				}
				if err := ten.grant.Resize(ctx, ng); err != nil {
					if !errors.Is(err, place.ErrRejected) {
						return nil, fmt.Errorf("sim: churn resize error: %w", err)
					}
					res.ResizeRejected++
				} else {
					ten.graph = ng
					ten.plan = nil // VM set changed; demand plan is stale
					res.Resized++
				}
			}
		}

		// Enforcement: every enforceEvery arrivals, the live tenants
		// draw fresh demand matrices and the dataplane converges their
		// work-conserving rates. Serial, like the rest of the loop, so
		// the outcome stays a pure function of the config.
		if cfg.Enforce && (i+1)%enforceEvery == 0 && len(live) > 0 {
			if err := controlPeriod(enforceRand, svc.Enforcement(), live, res.Enforcement); err != nil {
				return nil, err
			}
		}
	}

	res.Duration = clock
	stats := svc.Stats()
	res.Failovers = stats.Failovers
	loads = svc.Loads()
	for i, st := range stats.PerShard {
		ld := loads[i]
		res.PerShard[i] = ChurnShardStats{
			Admitted:     int(st.Admitted),
			Rejected:     int(st.Rejected),
			Resized:      int(st.Resized),
			LiveTenants:  ld.Tenants,
			ReservedGbps: ld.ReservedMbps / 1000,
		}
		if clock > 0 {
			res.PerShard[i].Utilization = slotSeconds[i] / (float64(ld.SlotsTotal) * clock)
		}
	}
	if clock > 0 {
		res.AdmissionRate = float64(res.Admitted) / clock
		var ss float64
		for _, v := range slotSeconds {
			ss += v
		}
		res.Utilization = ss / (totalSlots * clock)
	}
	if res.Arrivals > 0 {
		res.RejectionRatio = float64(res.Rejected) / float64(res.Arrivals)
	}

	// Drain the fleet: shards are independent, so releasing each
	// shard's survivors is embarrassingly parallel and cannot affect
	// the already-assembled result.
	remaining := make([][]*churnTenant, svc.Shards())
	for len(departures) > 0 {
		d := heap.Pop(&departures).(churnDeparture)
		id := d.ten.grant.Shard()
		remaining[id] = append(remaining[id], d.ten)
	}
	if err := parallel.ForEach(cfg.Workers, len(remaining), func(i int) error {
		for _, ten := range remaining[i] {
			ten.grant.Release()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if cfg.Enforce {
		// After the drain every lifecycle event has reached the
		// dataplane; the counters are the incremental-update audit
		// trail the enforcement tests assert on.
		res.Enforcement.Events = svc.Enforcement().Counters()
	}
	return res, nil
}
