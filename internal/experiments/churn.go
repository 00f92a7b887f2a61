package experiments

import (
	"fmt"
	"strconv"

	"cloudmirror/internal/parallel"
	"cloudmirror/internal/sim"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// This file is the sharded-fleet churn sweep: a grid of
// (shards × dispatch policy × load) dynamic-churn simulations over the
// cluster dispatcher, the scale-out counterpart of the single-tree
// placement experiments.

// ChurnSweep sweeps shard count, dispatch policy, and target load over
// the dynamic-churn simulator: every cell runs sim.Churn — Poisson
// arrivals, exponential lifetimes, dispatch with failover across the
// fleet — and reports the sustained admission rate, fleet utilization,
// rejection ratio, and failover count. Cells are independent — each
// builds its own fleet, pool, and RNGs from Options.Seed, sharing no
// state with other cells — so the sweep fans out across
// Options.Workers goroutines with bit-identical output at any worker
// count.
func ChurnSweep(o Options) (*Table, error) {
	spec := topology.MediumSpec()
	arrivals := 4000
	shardCounts := []int{1, 4, 8}
	loads := []float64{0.7, 0.9}
	if o.Quick {
		spec = topology.SmallSpec()
		arrivals = 600
		shardCounts = []int{1, 4}
		loads = []float64{0.9}
	}
	policies := []string{"rr", "least", "p2c"}

	type cell struct {
		shards int
		policy string
		load   float64
	}
	var cells []cell
	for _, n := range shardCounts {
		for _, pol := range policies {
			for _, ld := range loads {
				cells = append(cells, cell{n, pol, ld})
			}
		}
	}

	// Each cell is self-contained, so the fleet inside a cell is built
	// serially (Workers: 1) and the parallelism lives here, across
	// cells — the same shape as every other sweep in this package.
	results, err := parallel.Map(o.Workers, len(cells), func(i int) (*sim.ChurnResult, error) {
		c := cells[i]
		pool := workload.BingLike(o.Seed)
		workload.ScaleToBmax(pool, 800)
		return sim.Churn(sim.ChurnConfig{
			Spec:      spec,
			NewPlacer: algorithms["cm"].NewPlacer,
			Pool:      pool,
			Shards:    c.shards,
			Policy:    c.policy,
			Arrivals:  arrivals,
			Load:      c.load,
			MeanDwell: 1,
			Seed:      o.Seed,
			Workers:   1,
		})
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Name:   "churn",
		Title:  "Sharded admission under dynamic tenant churn (shards × policy × load)",
		Header: []string{"shards", "policy", "load", "admitted", "rejected", "failovers", "rej%", "util%", "adm/time"},
		Notes: fmt.Sprintf("%d arrivals per cell, CM placer, bing-like pool, exponential lifetimes",
			arrivals),
	}
	for i, r := range results {
		c := cells[i]
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(c.shards),
			c.policy,
			f1(c.load),
			strconv.Itoa(r.Admitted),
			strconv.Itoa(r.Rejected),
			strconv.FormatInt(r.Failovers, 10),
			pct(r.RejectionRatio),
			pct(r.Utilization),
			f1(r.AdmissionRate),
		})
	}
	return t, nil
}
