package experiments

import (
	"fmt"
	"time"

	"cloudmirror/internal/hose"
	"cloudmirror/internal/infer"
	"cloudmirror/internal/pipe"
	"cloudmirror/internal/place"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/trace"
	"cloudmirror/internal/voc"
	"cloudmirror/internal/workload"
)

// Fig1 regenerates Fig. 1: bandwidth-to-CPU demand of ten workloads and
// the provisioned bandwidth-to-CPU ratio of four datacenters at the
// server/ToR/aggregation levels (Mbps/GHz).
func Fig1(o Options) (*Table, error) {
	rows := make([][]string, 0, 16)
	for _, w := range workload.WorkloadRatios() {
		rows = append(rows, []string{
			"workload", w.Name, w.Kind.String(),
			fmt.Sprintf("%.0f..%.0f", w.Lo, w.Hi), "", "",
		})
	}
	const serverGHz = 40 // 16 cores × 2.5 GHz
	for _, dc := range workload.DatacenterRatios(serverGHz) {
		rows = append(rows, []string{
			"datacenter", dc.Name, "",
			f1(dc.Server), f1(dc.ToR), f1(dc.Agg),
		})
	}
	return &Table{
		Name:   "fig1",
		Title:  "Bandwidth-to-CPU ratios (Mbps/GHz): workload demand vs datacenter provisioning",
		Header: []string{"Kind", "Name", "Class", "Server/Range", "ToR", "Agg"},
		Rows:   rows,
		Notes:  "server CPU fixed at 40 GHz (16 cores × 2.5 GHz), per footnotes 2-3",
	}, nil
}

// BingStats regenerates the §2.2 traffic analysis of the bing-like pool:
// per-component and aggregate inter-component traffic fractions, and
// pool shape.
func BingStats(o Options) (*Table, error) {
	pool := workload.BingLike(o.Seed)
	perComp, aggregate := workload.InterComponentStats(pool)
	maxSize := 0
	components := 0
	for _, g := range pool {
		if g.VMs() > maxSize {
			maxSize = g.VMs()
		}
		components += g.Tiers()
	}
	rows := [][]string{
		{"tenants", fmt.Sprintf("%d", len(pool))},
		{"mean tenant size (VMs)", f1(workload.MeanSize(pool))},
		{"largest tenant (VMs)", fmt.Sprintf("%d", maxSize)},
		{"components", fmt.Sprintf("%d", components)},
		{"mean per-component inter-component traffic fraction", pct(perComp)},
		{"aggregate inter-component traffic share", pct(aggregate)},
	}
	return &Table{
		Name:   "bingstats",
		Title:  "bing-like pool statistics (§2.2 analysis; paper: ≈85-91% per component, 37-65% aggregate)",
		Header: []string{"Statistic", "Value"},
		Rows:   rows,
	}, nil
}

// Inference regenerates the §3 inference evaluation: mean adjusted
// mutual information between inferred clusterings and ground truth over
// the pool's multi-component applications (paper: 0.54 with Louvain over
// 80 applications).
func Inference(o Options) (*Table, error) {
	pool := workload.BingLike(o.Seed)
	maxVMs := 1 << 30
	steps := 6
	if o.Quick {
		maxVMs = 80
		steps = 4
	}
	var sum float64
	apps := 0
	perfect := 0
	for i, g := range pool {
		if g.Tiers() < 2 || g.VMs() < 4 || g.VMs() > maxVMs {
			continue
		}
		series, truth, err := trace.Synthesize(g, steps, 1.0, o.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		labels := infer.Cluster(series, o.Seed)
		ami := infer.AMI(truth, labels)
		sum += ami
		apps++
		if ami > 0.999 {
			perfect++
		}
	}
	if apps == 0 {
		//cloudlint:unwrapped CLI-facing diagnostic; callers print it, nothing matches on it
		return nil, fmt.Errorf("experiments: no applications qualified for inference")
	}
	rows := [][]string{
		{"applications clustered", fmt.Sprintf("%d", apps)},
		{"mean AMI vs ground truth", f2(sum / float64(apps))},
		{"perfectly recovered", fmt.Sprintf("%d", perfect)},
	}
	return &Table{
		Name:   "inference",
		Title:  "TAG inference from VM-to-VM traffic (Louvain; paper reports mean AMI 0.54)",
		Header: []string{"Statistic", "Value"},
		Rows:   rows,
		Notes:  fmt.Sprintf("%d-step traces, load-balancer skew 1.0", steps),
	}, nil
}

// Runtime regenerates the §5.1 runtime comparison: single-tenant
// placement latency of CM, Oktopus and SecondNet as tenant size grows.
func Runtime(o Options) (*Table, error) {
	sizes := []int{10, 50, 100, 250, 500, 1000}
	secondnetCap := 250
	if o.Quick {
		sizes = []int{10, 50, 100}
		secondnetCap = 50
	}
	spec := topology.PaperSpec()
	if o.Quick {
		spec = topology.SmallSpec()
	}

	var rows [][]string
	for _, size := range sizes {
		g := runtimeTenant(size)
		cmT, err := timePlacement(spec, g, algorithms["cm"])
		if err != nil {
			return nil, err
		}
		ovocT, err := timePlacement(spec, g, algorithms["ovoc"])
		if err != nil {
			return nil, err
		}
		snCol := "-"
		if size <= secondnetCap {
			snT, err := timePlacement(spec, g, algorithms["secondnet"])
			if err != nil {
				return nil, err
			}
			snCol = snT.String()
		}
		rows = append(rows, []string{fmt.Sprintf("%d", size), cmT.String(), ovocT.String(), snCol})
	}
	return &Table{
		Name:   "runtime",
		Title:  "Single-tenant placement runtime by tenant size (paper: CM ≈ Oktopus, SecondNet ≫ both)",
		Header: []string{"VMs", "CM", "OVOC", "SecondNet"},
		Rows:   rows,
		Notes:  fmt.Sprintf("%d-server topology, empty datacenter, 5-tier tenants", spec.Servers()),
	}, nil
}

// runtimeTenant builds a 5-tier tenant of the given size, matching the
// bing shape the paper cites (K≈10, T≈5).
func runtimeTenant(size int) *tag.Graph {
	g := tag.New(fmt.Sprintf("rt-%d", size))
	tiers := 5
	per := size / tiers
	extra := size - per*tiers
	for i := 0; i < tiers; i++ {
		n := per
		if i < extra {
			n++
		}
		if n == 0 {
			n = 1
		}
		g.AddTier(fmt.Sprintf("t%d", i), n)
	}
	for i := 0; i+1 < tiers; i++ {
		g.AddBidirectional(i, i+1, 50, 50*float64(g.TierSize(i))/float64(g.TierSize(i+1)))
	}
	g.AddSelfLoop(tiers-1, 20)
	return g
}

func timePlacement(spec topology.Spec, g *tag.Graph, alg Algorithm) (time.Duration, error) {
	tree := topology.New(spec)
	placer := alg.NewPlacer(tree)
	var model place.Model = g
	if alg.ModelFor != nil {
		model = alg.ModelFor(g)
	}
	start := time.Now()
	res, err := placer.Place(&place.Request{Graph: g, Model: model})
	elapsed := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("experiments: runtime tenant rejected: %w", err)
	}
	res.Release()
	return elapsed.Round(time.Microsecond), nil
}

// Storm regenerates the Fig. 3 analysis: the cross-branch bandwidth each
// abstraction reserves for the Storm application when {Spout1, Bolt1}
// and {Bolt2, Bolt3} occupy different branches.
func Storm(o Options) (*Table, error) {
	const s, b = 10, 100.0
	g := tag.New("storm")
	spout1 := g.AddTier("spout1", s)
	bolt1 := g.AddTier("bolt1", s)
	bolt2 := g.AddTier("bolt2", s)
	bolt3 := g.AddTier("bolt3", s)
	g.AddEdge(spout1, bolt1, b, b)
	g.AddEdge(spout1, bolt2, b, b)
	g.AddEdge(bolt2, bolt3, b, b)

	inside := []int{s, s, 0, 0} // {Spout1, Bolt1} branch
	models := []struct {
		name  string
		model place.Model
	}{
		{"TAG", g},
		{"VOC", voc.FromTAG(g)},
		{"hose", hose.FromTAG(g)},
		{"pipe", pipe.FromTAG(g)},
	}
	var rows [][]string
	for _, m := range models {
		out, in := m.model.Cut(inside)
		rows = append(rows, []string{m.name, f1(out), f1(in)})
	}
	return &Table{
		Name:   "storm",
		Title:  "Fig. 3 Storm deployment: bandwidth reserved on the cross-branch link (actual requirement: S·B = 1000 out)",
		Header: []string{"Model", "Out (Mbps)", "In (Mbps)"},
		Rows:   rows,
		Notes:  fmt.Sprintf("S=%d VMs per component, B=%g Mbps", s, b),
	}, nil
}
