package experiments

import (
	"fmt"

	"cloudmirror/internal/place"
	"cloudmirror/internal/sim"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

// This file regenerates the placement experiments: Table 1 and
// Figs. 7-12.

// scale bundles the full-paper vs quick parameters.
type scale struct {
	spec     topology.Spec
	arrivals int
	pool     func(seed int64) []*tag.Graph
}

func scaleOf(o Options) scale {
	if o.Quick {
		// 512 servers keep the largest tenant at a realistic ≈6% of
		// slots; the comparative shapes survive the scale-down.
		return scale{spec: topology.MediumSpec(), arrivals: 1200, pool: workload.BingLike}
	}
	return scale{spec: topology.PaperSpec(), arrivals: 10_000, pool: workload.BingLike}
}

// scaledPool returns a fresh pool normalized to bmax.
func (s scale) scaledPool(seed int64, bmax float64) []*tag.Graph {
	pool := s.pool(seed)
	workload.ScaleToBmax(pool, bmax)
	return pool
}

// Table1 regenerates Table 1: aggregate bandwidth (Gbps) reserved on
// server-, ToR- and aggregation-level uplinks for CM+TAG, CM+VOC (same
// placement, VOC pricing) and Oktopus+VOC, on an unlimited-capacity
// topology, measured when the first tenant is rejected for lack of VM
// slots.
func Table1(o Options) (*Table, error) {
	return table1For(o, "table1", "bing-like", nil)
}

// Table1HPCloud repeats Table 1 on the hpcloud-like pool — the paper
// reports "experiments using the hpcloud workload yielded results
// similar to Table 1".
func Table1HPCloud(o Options) (*Table, error) {
	return table1For(o, "table1hpc", "hpcloud-like", workload.HPCloudLike)
}

// Table1Synthetic repeats Table 1 on the synthetic web+MapReduce mix.
func Table1Synthetic(o Options) (*Table, error) {
	return table1For(o, "table1syn", "synthetic-mix", workload.SyntheticMix)
}

func table1For(o Options, name, poolName string, mkPool func(int64) []*tag.Graph) (*Table, error) {
	sc := scaleOf(o)
	if mkPool != nil {
		sc.pool = mkPool
	}
	spec := sc.spec
	for i := range spec.Levels {
		spec.Levels[i].Uplink = 1e15
	}
	base := sim.Config{
		Spec:         spec,
		Arrivals:     sc.arrivals,
		Load:         1,
		MeanDwell:    1,
		Seed:         o.Seed,
		ArrivalsOnly: true,
	}

	// Each point builds its own pool (identical content — the builder
	// is a pure function of the seed), upholding the engine's contract
	// that concurrent points share no mutable state.
	rs, err := runPoints(o, []point{
		func() (*sim.Result, error) {
			cfg := base
			cfg.Pool = sc.scaledPool(o.Seed, 800)
			cfg.NewPlacer = algorithms["cm"].NewPlacer
			cfg.Mirrors = []sim.Mirror{{Name: "VOC", ModelFor: vocModel}}
			return sim.Run(cfg)
		},
		func() (*sim.Result, error) {
			cfg := base
			cfg.Pool = sc.scaledPool(o.Seed, 800)
			cfg.NewPlacer, cfg.ModelFor = algorithms["ovoc"].NewPlacer, vocModel
			return sim.Run(cfg)
		},
	})
	if err != nil {
		return nil, err
	}
	cm, ovoc := rs[0], rs[1]

	cmVOC := cm.MirrorReserved["VOC"]
	ratio := func(v, base float64) string {
		if base == 0 {
			return fmt.Sprintf("%s (inf)", gbps(v))
		}
		return fmt.Sprintf("%s (%.2f)", gbps(v), v/base)
	}
	rows := [][]string{
		{"CM+TAG", gbps(cm.LevelReserved[0]), gbps(cm.LevelReserved[1]), gbps(cm.LevelReserved[2])},
		{"CM+VOC", ratio(cmVOC[0], cm.LevelReserved[0]), ratio(cmVOC[1], cm.LevelReserved[1]), ratio(cmVOC[2], cm.LevelReserved[2])},
		{"OVOC", ratio(ovoc.LevelReserved[0], cm.LevelReserved[0]), ratio(ovoc.LevelReserved[1], cm.LevelReserved[1]), ratio(ovoc.LevelReserved[2], cm.LevelReserved[2])},
	}
	return &Table{
		Name:   name,
		Title:  fmt.Sprintf("Reserved bandwidth (Gbps) for %s workload; () = ratio vs CM+TAG", poolName),
		Header: []string{"Algorithm", "Server", "ToR", "Agg"},
		Rows:   rows,
		Notes: fmt.Sprintf("%d servers, arrivals until first slot rejection (deployed %d tenants), unlimited link capacity",
			spec.Servers(), cm.Accepted),
	}, nil
}

// Baselines compares the paper-faithful Oktopus (VC-lens placement
// decisions) with the VOC-aware upgrade and CloudMirror at one stressed
// operating point — the baseline-strength ablation discussed in
// EXPERIMENTS.md.
func Baselines(o Options) (*Table, error) {
	sc := scaleOf(o)
	variants := []struct{ name, alg string }{
		{"CM+TAG", "cm"},
		{"OVOC (paper-faithful)", "ovoc"},
		{"OVOC+aware (stronger)", "ovoc-aware"},
	}
	points := make([]point, len(variants))
	for i, v := range variants {
		points[i] = func() (*sim.Result, error) {
			return rejectionRun(sc, o.Seed, 1200, 0.9, v.alg, place.HASpec{}, nil)
		}
	}
	rs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, v := range variants {
		rows = append(rows, []string{v.name, pct(rs[i].BWRejectionRate()), pct(rs[i].VMRejectionRate())})
	}
	return &Table{
		Name:   "baselines",
		Title:  "Baseline-strength ablation: rejected bandwidth at Bmax = 1200, load 90%",
		Header: []string{"Algorithm", "Rejected BW", "Rejected VMs"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

// rejectionRun executes one (algorithm, bmax, load) cell of Figs. 7-10.
func rejectionRun(sc scale, seed int64, bmax, load float64, alg string, ha place.HASpec, spec *topology.Spec) (*sim.Result, error) {
	s := sc.spec
	if spec != nil {
		s = *spec
	}
	return sim.Run(sim.Config{
		Spec:      s,
		NewPlacer: algorithms[alg].NewPlacer,
		ModelFor:  algorithms[alg].ModelFor,
		Pool:      sc.scaledPool(seed, bmax),
		Arrivals:  sc.arrivals,
		Load:      load,
		MeanDwell: 1,
		Seed:      seed,
		HA:        ha,
	})
}

// Fig7 regenerates Fig. 7: rejection rates (bandwidth- and VM-weighted)
// vs Bmax at 50% and 90% load, for CM and OVOC.
func Fig7(o Options) (*Table, error) {
	sc := scaleOf(o)
	bmaxes := []float64{400, 600, 800, 1000, 1200}
	type cell struct{ load, bmax float64 }
	var cells []cell
	for _, load := range []float64{0.5, 0.9} {
		for _, bmax := range bmaxes {
			cells = append(cells, cell{load, bmax})
		}
	}
	cms, ovocs, err := pairPoints(o, len(cells), func(i int) (point, point) {
		c := cells[i]
		return func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, c.bmax, c.load, "cm", place.HASpec{}, nil)
			}, func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, c.bmax, c.load, "ovoc", place.HASpec{}, nil)
			}
	})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, c := range cells {
		cm, ovoc := cms[i], ovocs[i]
		rows = append(rows, []string{
			pct(c.load), f1(c.bmax),
			pct(cm.BWRejectionRate()), pct(ovoc.BWRejectionRate()),
			pct(cm.VMRejectionRate()), pct(ovoc.VMRejectionRate()),
		})
	}
	return &Table{
		Name:   "fig7",
		Title:  "Rejection rates vs Bmax (Fig. 7a: load 50%, Fig. 7b: load 90%)",
		Header: []string{"Load", "Bmax", "BW,CM", "BW,OVOC", "VM,CM", "VM,OVOC"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

// Fig8 regenerates Fig. 8: rejection rates vs load at Bmax = 800 Mbps.
func Fig8(o Options) (*Table, error) {
	sc := scaleOf(o)
	var loads []float64
	for load := 0.1; load <= 1.0001; load += 0.1 {
		loads = append(loads, load)
	}
	cms, ovocs, err := pairPoints(o, len(loads), func(i int) (point, point) {
		load := loads[i]
		return func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, 800, load, "cm", place.HASpec{}, nil)
			}, func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, 800, load, "ovoc", place.HASpec{}, nil)
			}
	})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, load := range loads {
		cm, ovoc := cms[i], ovocs[i]
		rows = append(rows, []string{
			pct(load),
			pct(cm.BWRejectionRate()), pct(ovoc.BWRejectionRate()),
			pct(cm.VMRejectionRate()), pct(ovoc.VMRejectionRate()),
		})
	}
	return &Table{
		Name:   "fig8",
		Title:  "Rejection rates vs load (Bmax = 800 Mbps)",
		Header: []string{"Load", "BW,CM", "BW,OVOC", "VM,CM", "VM,OVOC"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

// Fig9 regenerates Fig. 9: bandwidth rejection rate vs topology
// oversubscription for CM and OVOC.
func Fig9(o Options) (*Table, error) {
	sc := scaleOf(o)
	ratios := []float64{16, 32, 64, 128}
	// Each point builds its own spec: OversubSpec/MediumSpec return
	// fresh Levels slices, so concurrent points never share one.
	specFor := func(ratio float64) topology.Spec {
		spec := topology.OversubSpec(ratio)
		if o.Quick {
			// Scale the medium topology's agg uplink the same way.
			spec = topology.MediumSpec()
			spec.Levels[2].Uplink = spec.Levels[2].Uplink * 32 / ratio
		}
		return spec
	}
	cms, ovocs, err := pairPoints(o, len(ratios), func(i int) (point, point) {
		ratio := ratios[i]
		return func() (*sim.Result, error) {
				spec := specFor(ratio)
				return rejectionRun(sc, o.Seed, 800, 0.9, "cm", place.HASpec{}, &spec)
			}, func() (*sim.Result, error) {
				spec := specFor(ratio)
				return rejectionRun(sc, o.Seed, 800, 0.9, "ovoc", place.HASpec{}, &spec)
			}
	})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, ratio := range ratios {
		rows = append(rows, []string{
			fmt.Sprintf("%gx", ratio),
			pct(cms[i].BWRejectionRate()), pct(ovocs[i].BWRejectionRate()),
		})
	}
	return &Table{
		Name:   "fig9",
		Title:  "Rejected bandwidth vs oversubscription ratio (Bmax = 800, load 90%)",
		Header: []string{"Oversub", "CM", "OVOC"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

// Fig10 regenerates Fig. 10: the Coloc/Balance ablation at one operating
// point, with OVOC as reference.
func Fig10(o Options) (*Table, error) {
	sc := scaleOf(o)
	variants := []struct{ name, alg string }{
		{"Coloc+Balance", "cm"},
		{"Coloc", "cm-coloc"},
		{"Balance", "cm-balance"},
		{"OVOC", "ovoc"},
	}
	points := make([]point, len(variants))
	for i, v := range variants {
		points[i] = func() (*sim.Result, error) {
			return rejectionRun(sc, o.Seed, 800, 0.9, v.alg, place.HASpec{}, nil)
		}
	}
	rs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, v := range variants {
		rows = append(rows, []string{v.name, pct(rs[i].BWRejectionRate())})
	}
	return &Table{
		Name:   "fig10",
		Title:  "Micro-benchmark of CM subroutines: rejected bandwidth (Bmax = 800, load 90%)",
		Header: []string{"Variant", "Rejected BW"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

// Fig11 regenerates Fig. 11: achieved worst-case survivability and
// rejected bandwidth vs the required WCS, for CM+HA and OVOC+HA with
// server-level anti-affinity.
func Fig11(o Options) (*Table, error) {
	sc := scaleOf(o)
	rwcss := []float64{0, 0.25, 0.5, 0.75}
	cms, ovocs, err := pairPoints(o, len(rwcss), func(i int) (point, point) {
		ha := place.HASpec{RWCS: rwcss[i]}
		return func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, 800, 0.9, "cm", ha, nil)
			}, func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, 800, 0.9, "ovoc", ha, nil)
			}
	})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, rwcs := range rwcss {
		cm, ovoc := cms[i], ovocs[i]
		rows = append(rows, []string{
			pct(rwcs),
			pct(cm.MeanWCS), fmt.Sprintf("[%s..%s]", pct(cm.MinWCS), pct(cm.MaxWCS)),
			pct(ovoc.MeanWCS), fmt.Sprintf("[%s..%s]", pct(ovoc.MinWCS), pct(ovoc.MaxWCS)),
			pct(cm.BWRejectionRate()), pct(ovoc.BWRejectionRate()),
		})
	}
	return &Table{
		Name:   "fig11",
		Title:  "Guaranteed WCS (LAA = server): achieved WCS and rejected bandwidth",
		Header: []string{"RWCS", "WCS,CM+HA", "range", "WCS,OVOC+HA", "range", "RejBW,CM", "RejBW,OVOC"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

// Fig12 regenerates Fig. 12: rejected bandwidth and mean server-level
// WCS vs Bmax for the default CM, CM+HA (50% WCS guarantee) and
// CM+oppHA.
func Fig12(o Options) (*Table, error) {
	sc := scaleOf(o)
	bmaxes := []float64{400, 600, 800, 1000, 1200}
	points := make([]point, 0, 3*len(bmaxes))
	for _, bmax := range bmaxes {
		points = append(points,
			func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, bmax, 0.9, "cm", place.HASpec{}, nil)
			},
			func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, bmax, 0.9, "cm", place.HASpec{RWCS: 0.5}, nil)
			},
			func() (*sim.Result, error) {
				return rejectionRun(sc, o.Seed, bmax, 0.9, "cm-oppha", place.HASpec{}, nil)
			})
	}
	rs, err := runPoints(o, points)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for i, bmax := range bmaxes {
		cm, cmha, opp := rs[3*i], rs[3*i+1], rs[3*i+2]
		rows = append(rows, []string{
			f1(bmax),
			pct(cm.BWRejectionRate()), pct(cmha.BWRejectionRate()), pct(opp.BWRejectionRate()),
			pct(cm.MeanWCS), pct(cmha.MeanWCS), pct(opp.MeanWCS),
		})
	}
	return &Table{
		Name:   "fig12",
		Title:  "HA mechanisms vs Bmax: rejected bandwidth (a) and mean server-level WCS (b)",
		Header: []string{"Bmax", "RejBW,CM", "RejBW,CM+HA", "RejBW,oppHA", "WCS,CM", "WCS,CM+HA", "WCS,oppHA"},
		Rows:   rows,
		Notes:  runNotes(sc),
	}, nil
}

func runNotes(sc scale) string {
	return fmt.Sprintf("%d servers × %d slots, %d Poisson arrivals with departures, bing-like pool",
		sc.spec.Servers(), sc.spec.SlotsPerServer, sc.arrivals)
}
