// Command simulate runs a single datacenter simulation with explicit
// parameters — the building block the experiments compose, exposed for
// custom studies.
//
// Usage:
//
//	simulate [-alg cm|cm-oppha|cm-coloc|cm-balance|ovoc|ovoc-aware|secondnet]
//	         [-workload bing|hpcloud|synthetic] [-servers 128|512|2048]
//	         [-arrivals N] [-load F] [-bmax Mbps] [-rwcs F] [-oversub R]
//	         [-seed N] [-churn] [-shards N] [-policy rr|least|p2c] [-parallel N]
//	         [-resize F] [-enforce] [-enforce-every N]
//
// Example:
//
//	simulate -alg ovoc -load 0.9 -bmax 1200 -servers 512
//
// With -churn the command runs the dynamic-churn simulation instead:
// Poisson tenant arrivals with exponential lifetimes are dispatched
// across -shards independent datacenter trees by the -policy load
// balancer (with failover), and the per-shard sustained admission
// rate, steady-state utilization, and rejection ratio are reported.
// Churn output is a deterministic function of the flags — byte-
// identical across repeated runs and across -parallel values, which
// only bound the goroutines building and draining shards.
//
// With -resize F (combined with -churn) each arrival is followed, with
// probability F, by an elastic tier resize of one live tenant through
// the guarantee API — the paper's §6 auto-scaling under churn.
//
// With -enforce (combined with -churn) the enforcement dataplane rides
// the Grant lifecycle: every -enforce-every arrivals the live tenants
// draw fresh demand matrices and the work-conserving GP/RA control
// loop converges their per-flow rates; the report shows the worst
// achieved/guaranteed ratio and the redistributed spare capacity.
// Enforcement demands come from a dedicated RNG, so the admission
// trace is byte-identical with and without -enforce.
//
// -alg resolves through internal/experiments. -churn runs the guarantee
// service, which prices every tenant by its TAG, so it takes only the cm
// variants. Policy and shard validation lives in guarantee.New; this
// command only maps flags onto its functional options.
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudmirror/guarantee"
	"cloudmirror/internal/experiments"
	"cloudmirror/internal/sim"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/workload"
)

func main() {
	alg := flag.String("alg", "cm", "placement algorithm: cm, cm-oppha, cm-coloc, cm-balance, ovoc, ovoc-aware, secondnet")
	wl := flag.String("workload", "bing", "tenant pool: bing, hpcloud, synthetic")
	servers := flag.Int("servers", 512, "datacenter size: 128, 512, or 2048 servers")
	arrivals := flag.Int("arrivals", 2000, "number of tenant arrivals")
	load := flag.Float64("load", 0.9, "target datacenter load in (0,1]")
	bmax := flag.Float64("bmax", 800, "per-VM bandwidth normalization target (Mbps)")
	rwcs := flag.Float64("rwcs", 0, "required worst-case survivability in [0,1)")
	oversub := flag.Float64("oversub", 0, "override total oversubscription ratio (2048-server topology only)")
	seed := flag.Int64("seed", 1, "random seed")
	par := flag.Int("parallel", 0, "goroutines building and draining shards (churn mode; 0 = all cores)")
	churn := flag.Bool("churn", false, "run the dynamic-churn simulation (arrivals and departures over a sharded fleet)")
	shards := flag.Int("shards", 1, "number of independent datacenter trees behind the dispatcher")
	policy := flag.String("policy", "rr", "dispatch policy: rr, least, p2c")
	resize := flag.Float64("resize", 0, "per-arrival probability of an elastic tier resize (churn mode)")
	enforce := flag.Bool("enforce", false, "attach the enforcement dataplane and interleave GP/RA control periods (churn mode)")
	enforceEvery := flag.Int("enforce-every", 16, "control-period cadence in arrivals (with -enforce)")
	flag.Parse()

	// Fleet-option validation (policy names, shard counts) lives in
	// guarantee.New; only the flag interplay this command owns is
	// checked here.
	if *par != 0 && !*churn {
		fatal(fmt.Errorf("-parallel %d needs -churn: the single-run mode has no shards to build or drain", *par))
	}
	if *resize > 0 && !*churn {
		fatal(fmt.Errorf("-resize %g needs -churn: only the churn simulation drives elastic scaling", *resize))
	}
	if *enforce && !*churn {
		fatal(fmt.Errorf("-enforce needs -churn: only the churn simulation drives the enforcement dataplane"))
	}
	if !*enforce && *enforceEvery != 16 {
		fatal(fmt.Errorf("-enforce-every needs -enforce: no control periods run without it"))
	}
	if *par < 0 {
		fatal(fmt.Errorf("invalid -parallel %d: need an integer >= 0", *par))
	}

	var spec topology.Spec
	switch {
	case *oversub > 0:
		spec = topology.OversubSpec(*oversub)
	case *servers == 128:
		spec = topology.SmallSpec()
	case *servers == 512:
		spec = topology.MediumSpec()
	case *servers == 2048:
		spec = topology.PaperSpec()
	default:
		fatal(fmt.Errorf("unsupported -servers %d: valid values are 128, 512, 2048", *servers))
	}

	var pool []*tag.Graph
	switch *wl {
	case "bing":
		pool = workload.BingLike(*seed)
	case "hpcloud":
		pool = workload.HPCloudLike(*seed)
	case "synthetic":
		pool = workload.SyntheticMix(*seed)
	default:
		fatal(fmt.Errorf("unknown -workload %q: valid values are bing, hpcloud, synthetic", *wl))
	}
	workload.ScaleToBmax(pool, *bmax)

	algorithm, err := experiments.AlgorithmByName(*alg)
	if err != nil {
		fatal(err)
	}
	if *churn && algorithm.ModelFor != nil {
		fatal(fmt.Errorf("-churn needs a TAG-priced -alg (cm, cm-oppha, cm-coloc, cm-balance): the churn simulation runs the guarantee service, which prices every tenant by its TAG, and %s prices by its own model", *alg))
	}
	cfg := sim.Config{
		Spec:      spec,
		NewPlacer: algorithm.NewPlacer,
		ModelFor:  algorithm.ModelFor,
		Pool:      pool,
		Arrivals:  *arrivals,
		Load:      *load,
		MeanDwell: 1,
		Seed:      *seed,
		HA:        guarantee.HASpec{RWCS: *rwcs},
	}

	if *churn {
		cr, err := sim.Churn(sim.ChurnConfig{
			Spec:         cfg.Spec,
			NewPlacer:    cfg.NewPlacer,
			Pool:         cfg.Pool,
			Shards:       *shards,
			Policy:       *policy,
			Arrivals:     cfg.Arrivals,
			Load:         cfg.Load,
			MeanDwell:    cfg.MeanDwell,
			ResizeProb:   *resize,
			Enforce:      *enforce,
			EnforceEvery: *enforceEvery,
			HA:           cfg.HA,
			Seed:         cfg.Seed,
			Workers:      *par,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("algorithm        %s\n", cr.Placer)
		fmt.Printf("fleet            %d shards × %d servers × %d slots, policy %s\n",
			cr.Shards, spec.Servers(), spec.SlotsPerServer, cr.Policy)
		fmt.Printf("arrivals         %d  (admitted %d, rejected %d, departed %d)\n",
			cr.Arrivals, cr.Admitted, cr.Rejected, cr.Departures)
		if cr.Resized+cr.ResizeRejected > 0 {
			fmt.Printf("resizes          %d committed, %d rejected\n", cr.Resized, cr.ResizeRejected)
		}
		fmt.Printf("failovers        %d retried placement attempts\n", cr.Failovers)
		fmt.Printf("admission rate   %.1f tenants per unit time (simulated duration %.2f)\n",
			cr.AdmissionRate, cr.Duration)
		fmt.Printf("rejection ratio  %.2f%% of tenants\n", 100*cr.RejectionRatio)
		fmt.Printf("utilization      %.1f%% of fleet slots (time-averaged)\n", 100*cr.Utilization)
		fmt.Printf("shard  admitted  rejected  live  reservedGbps  util%%\n")
		for i, s := range cr.PerShard {
			fmt.Printf("%5d  %8d  %8d  %4d  %12.1f  %5.1f\n",
				i, s.Admitted, s.Rejected, s.LiveTenants, s.ReservedGbps, 100*s.Utilization)
		}
		if e := cr.Enforcement; e != nil {
			fmt.Printf("enforcement      %d control periods (%d GP/RA iterations), %d tenants × %d flows at the end\n",
				e.Periods, e.Iterations, e.Tenants, e.Pairs)
			fmt.Printf("guarantees       min achieved/guaranteed ratio %.6f (>= 1 means every guarantee held)\n",
				e.MinRatio)
			fmt.Printf("work conservation%9.1f Gbps achieved = %.1f guaranteed-and-demanded + %.1f redistributed spare\n",
				e.AchievedMbps/1000, (e.AchievedMbps-e.SpareMbps)/1000, e.SpareMbps/1000)
			fmt.Printf("dataplane events %d admitted, %d resized, %d released, %d fabric builds (incremental: builds == shards)\n",
				e.Events.Admitted, e.Events.Resized, e.Events.Released, e.Events.FabricBuilds)
		}
		return
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("algorithm        %s\n", res.Placer)
	fmt.Printf("datacenter       %d servers × %d slots, load %.0f%%, Bmax %.0f Mbps\n",
		spec.Servers(), spec.SlotsPerServer, *load*100, *bmax)
	fmt.Printf("arrivals         %d  (accepted %d, rejected %d)\n", res.Arrivals, res.Accepted, res.Rejected)
	fmt.Printf("rejection        %.2f%% of bandwidth, %.2f%% of VMs, %.2f%% of tenants\n",
		100*res.BWRejectionRate(), 100*res.VMRejectionRate(), 100*res.TenantRejectionRate())
	fmt.Printf("WCS (server)     mean %.1f%%, min %.1f%%, max %.1f%%\n",
		100*res.MeanWCS, 100*res.MinWCS, 100*res.MaxWCS)
	for l, v := range res.LevelReserved {
		if l < len(spec.Levels) {
			fmt.Printf("reserved L%d      %10.1f Gbps (%s)\n", l, v/1000, spec.Levels[l].Name)
		}
	}
	fmt.Printf("placement time   %s total\n", res.PlacementTime.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simulate:", err)
	os.Exit(1)
}
