// Package sim is the event-driven tenant simulation engine behind the
// CloudMirror evaluation (§5): Poisson tenant arrivals sampled uniformly
// from a workload pool, exponential dwell times, a placement algorithm
// under test, and rejection/availability accounting.
//
// The load on the datacenter follows the paper's formula
//
//	load = Ts · λ · Td / totalSlots
//
// so for a requested load the engine derives the arrival rate λ from the
// pool's mean tenant size Ts and the mean dwell time Td.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cloudmirror/internal/ha"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
)

// Config describes one simulation run.
type Config struct {
	// Spec is the datacenter topology to build.
	Spec topology.Spec
	// NewPlacer constructs the algorithm under test on the built tree.
	NewPlacer func(*topology.Tree) place.Placer
	// ModelFor selects the bandwidth abstraction used for admission and
	// reservation (TAG, VOC, pipe). Nil means the TAG itself.
	ModelFor func(*tag.Graph) place.Model
	// Pool is the tenant template pool; arrivals sample it uniformly.
	Pool []*tag.Graph
	// Arrivals is the number of tenant arrivals to simulate.
	Arrivals int
	// Load is the target datacenter load in (0,1].
	Load float64
	// MeanDwell is the mean tenant dwell time Td (arbitrary time units).
	MeanDwell float64
	// HA is applied to every arriving tenant (zero value: none).
	HA place.HASpec
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// ArrivalsOnly disables departures and stops at the first rejection
	// caused by slot exhaustion — the Table 1 measurement mode.
	ArrivalsOnly bool
	// Mirrors re-prices each successful placement under alternative
	// bandwidth models on unlimited shadow trees (Table 1's CM+VOC row).
	Mirrors []Mirror
	// HALevel is the fault-domain level for WCS reporting (default
	// server).
	HALevel int
}

// Mirror re-prices placements under another model.
type Mirror struct {
	Name     string
	ModelFor func(*tag.Graph) place.Model
}

// Result aggregates a run's outcome.
type Result struct {
	Placer string

	Arrivals int
	Accepted int
	Rejected int

	TotalVMs    int
	RejectedVMs int
	TotalBW     float64
	RejectedBW  float64

	// LevelReserved[l] is the bandwidth reserved on level-l uplinks at
	// the measurement point (end of run, or first slot rejection in
	// ArrivalsOnly mode), in Mbps summed over both directions.
	LevelReserved []float64
	// MirrorReserved gives the same vector per configured mirror model.
	MirrorReserved map[string][]float64

	// WCS statistics over the components of all accepted tenants, at
	// the configured HALevel.
	MeanWCS, MinWCS, MaxWCS float64
	wcsCount                int

	// PlacementTime is the cumulative wall time spent inside Place.
	PlacementTime time.Duration
}

// VMRejectionRate returns rejected VMs / total VMs across all arrivals.
func (r *Result) VMRejectionRate() float64 {
	if r.TotalVMs == 0 {
		return 0
	}
	return float64(r.RejectedVMs) / float64(r.TotalVMs)
}

// BWRejectionRate returns rejected bandwidth / total bandwidth demanded.
func (r *Result) BWRejectionRate() float64 {
	if r.TotalBW == 0 {
		return 0
	}
	return r.RejectedBW / r.TotalBW
}

// TenantRejectionRate returns rejected tenants / arrivals.
func (r *Result) TenantRejectionRate() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(r.Arrivals)
}

// departure is a scheduled tenant exit.
type departure struct {
	at  float64
	res *place.Reservation
}

type departureQueue []departure

func (q departureQueue) Len() int           { return len(q) }
func (q departureQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q departureQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *departureQueue) Push(x any)        { *q = append(*q, x.(departure)) }
func (q *departureQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Run executes the simulation and returns its result.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Pool) == 0 {
		return nil, errors.New("sim: empty tenant pool")
	}
	if cfg.Arrivals <= 0 {
		return nil, errors.New("sim: Arrivals must be positive")
	}
	tree := topology.New(cfg.Spec)
	placer := cfg.NewPlacer(tree)
	r := rand.New(rand.NewSource(cfg.Seed))

	res := &Result{
		Placer:         placer.Name(),
		LevelReserved:  make([]float64, tree.Height()+1),
		MirrorReserved: make(map[string][]float64),
		MinWCS:         1,
	}

	// Mirror trees: unlimited capacity so re-pricing never fails.
	type mirrorState struct {
		m    Mirror
		tree *topology.Tree
	}
	mirrors := make([]mirrorState, 0, len(cfg.Mirrors))
	for _, m := range cfg.Mirrors {
		spec := cfg.Spec
		spec.Levels = append([]topology.LevelSpec(nil), cfg.Spec.Levels...)
		for i := range spec.Levels {
			spec.Levels[i].Uplink = 1e15
		}
		mirrors = append(mirrors, mirrorState{m, topology.New(spec)})
	}

	// Arrival rate from the load formula.
	meanDwell := cfg.MeanDwell
	if meanDwell <= 0 {
		meanDwell = 1
	}
	var meanSize float64
	for _, g := range cfg.Pool {
		meanSize += float64(g.VMs())
	}
	meanSize /= float64(len(cfg.Pool))
	totalSlots := float64(tree.SlotsTotal(tree.Root()))
	load := cfg.Load
	if load <= 0 {
		load = 1
	}
	lambda := load * totalSlots / (meanSize * meanDwell)

	var clock float64
	var departures departureQueue
	heap.Init(&departures)

	for i := 0; i < cfg.Arrivals; i++ {
		clock += r.ExpFloat64() / lambda
		if !cfg.ArrivalsOnly {
			for len(departures) > 0 && departures[0].at <= clock {
				heap.Pop(&departures).(departure).res.Release()
			}
		}

		g := cfg.Pool[r.Intn(len(cfg.Pool))]
		var model place.Model = g
		if cfg.ModelFor != nil {
			model = cfg.ModelFor(g)
		}
		req := &place.Request{ID: int64(i), Graph: g, Model: model, HA: cfg.HA}

		res.Arrivals++
		res.TotalVMs += g.VMs()
		bw := g.AggregateBandwidth()
		res.TotalBW += bw

		start := time.Now() //cloudlint:wallclock measures real placement latency for reporting; simulated outcomes never read it
		reservation, err := placer.Place(req)
		res.PlacementTime += time.Since(start) //cloudlint:wallclock measures real placement latency for reporting; simulated outcomes never read it
		if err != nil {
			if !errors.Is(err, place.ErrRejected) {
				return nil, fmt.Errorf("sim: placement error: %w", err)
			}
			res.Rejected++
			res.RejectedVMs += g.VMs()
			res.RejectedBW += bw
			if cfg.ArrivalsOnly {
				// Table 1 mode: measure at the first (slot) rejection.
				break
			}
			continue
		}
		res.Accepted++
		res.recordWCS(tree, reservation, g, cfg.HALevel)
		for _, ms := range mirrors {
			mm := ms.m.ModelFor(g)
			if _, err := place.Account(ms.tree, mm, reservation.Placement()); err != nil {
				return nil, fmt.Errorf("sim: mirror %q accounting failed: %w", ms.m.Name, err)
			}
		}
		if !cfg.ArrivalsOnly {
			heap.Push(&departures, departure{clock + r.ExpFloat64()*meanDwell, reservation})
		}
	}

	for l := 0; l <= tree.Height(); l++ {
		res.LevelReserved[l] = tree.LevelReserved(l)
	}
	for _, ms := range mirrors {
		lv := make([]float64, ms.tree.Height()+1)
		for l := range lv {
			lv[l] = ms.tree.LevelReserved(l)
		}
		res.MirrorReserved[ms.m.Name] = lv
	}
	if res.wcsCount == 0 {
		res.MinWCS = 0
	}
	return res, nil
}

func (res *Result) recordWCS(tree *topology.Tree, r *place.Reservation, g *tag.Graph, laa int) {
	w := ha.WCS(tree, r.Placement(), g.Tiers(), laa)
	for _, v := range w {
		if v < 0 {
			continue
		}
		res.MeanWCS = (res.MeanWCS*float64(res.wcsCount) + v) / float64(res.wcsCount+1)
		res.wcsCount++
		if v < res.MinWCS {
			res.MinWCS = v
		}
		if v > res.MaxWCS {
			res.MaxWCS = v
		}
	}
}
