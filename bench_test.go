package cloudmirror

// One benchmark per table and figure of the paper's evaluation (§5),
// plus micro-benchmarks of the core primitives. The experiment
// benchmarks run the reduced-scale (Quick) configuration — 512 servers,
// 1200 arrivals — and report the headline metric of each artifact via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every
// result's shape in minutes. cmd/experiments runs the full paper scale.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"cloudmirror/guarantee"
	"cloudmirror/internal/enforce"
	"cloudmirror/internal/experiments"
	"cloudmirror/internal/infer"
	"cloudmirror/internal/netem"
	"cloudmirror/internal/pipe"
	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/place/oktopus"
	"cloudmirror/internal/place/secondnet"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/trace"
	"cloudmirror/internal/voc"
	"cloudmirror/internal/workload"
)

func quickOpts() experiments.Options { return experiments.Options{Quick: true, Seed: 1} }

// cell parses the leading float out of a formatted table cell.
func cell(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	s := strings.TrimSuffix(strings.Fields(t.Cell(row, col))[0], "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, t.Cell(row, col), err)
	}
	return v
}

func runExperiment(b *testing.B, name string) *experiments.Table {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(name, quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	return last
}

// BenchmarkFig1Ratios regenerates Fig. 1 (bandwidth-to-CPU ratios).
func BenchmarkFig1Ratios(b *testing.B) {
	t := runExperiment(b, "fig1")
	// Paper-cloud DC server-level provisioning, Mbps/GHz.
	b.ReportMetric(cell(b, t, 10, 3), "server-Mbps/GHz")
}

// BenchmarkTable1ReservedBW regenerates Table 1 (reserved bandwidth by
// model and placement algorithm).
func BenchmarkTable1ReservedBW(b *testing.B) {
	t := runExperiment(b, "table1")
	b.ReportMetric(cell(b, t, 0, 2), "CM+TAG-ToR-Gbps")
	b.ReportMetric(cell(b, t, 2, 2), "OVOC-ToR-Gbps")
}

// BenchmarkFig4HoseVsTAG regenerates the Fig. 4 congestion scenario.
func BenchmarkFig4HoseVsTAG(b *testing.B) {
	t := runExperiment(b, "fig4")
	b.ReportMetric(cell(b, t, 0, 1), "hose-web-Mbps")
	b.ReportMetric(cell(b, t, 1, 1), "tag-web-Mbps")
}

// BenchmarkFig7Rejection regenerates Fig. 7 (rejection vs Bmax at 50%
// and 90% load).
func BenchmarkFig7Rejection(b *testing.B) {
	t := runExperiment(b, "fig7")
	last := len(t.Rows) - 1 // load 90%, Bmax 1200
	b.ReportMetric(cell(b, t, last, 2), "CM-rejBW-%")
	b.ReportMetric(cell(b, t, last, 3), "OVOC-rejBW-%")
}

// BenchmarkFig8Load regenerates Fig. 8 (rejection vs load).
func BenchmarkFig8Load(b *testing.B) {
	t := runExperiment(b, "fig8")
	last := len(t.Rows) - 1 // load 100%
	b.ReportMetric(cell(b, t, last, 1), "CM-rejBW-%")
	b.ReportMetric(cell(b, t, last, 2), "OVOC-rejBW-%")
}

// BenchmarkFig9Oversub regenerates Fig. 9 (rejection vs oversubscription).
func BenchmarkFig9Oversub(b *testing.B) {
	t := runExperiment(b, "fig9")
	last := len(t.Rows) - 1 // 128x
	b.ReportMetric(cell(b, t, last, 1), "CM-rejBW-%")
	b.ReportMetric(cell(b, t, last, 2), "OVOC-rejBW-%")
}

// BenchmarkFig10Ablation regenerates Fig. 10 (Coloc/Balance ablation).
func BenchmarkFig10Ablation(b *testing.B) {
	t := runExperiment(b, "fig10")
	b.ReportMetric(cell(b, t, 0, 1), "Coloc+Balance-rejBW-%")
	b.ReportMetric(cell(b, t, 3, 1), "OVOC-rejBW-%")
}

// BenchmarkFig11WCS regenerates Fig. 11 (guaranteed worst-case
// survivability).
func BenchmarkFig11WCS(b *testing.B) {
	t := runExperiment(b, "fig11")
	last := len(t.Rows) - 1 // RWCS 75%
	b.ReportMetric(cell(b, t, last, 1), "CM-WCS-%")
	b.ReportMetric(cell(b, t, last, 5), "CM-rejBW-%")
}

// BenchmarkFig12OppHA regenerates Fig. 12 (opportunistic anti-affinity).
func BenchmarkFig12OppHA(b *testing.B) {
	t := runExperiment(b, "fig12")
	mid := 2 // Bmax 800
	b.ReportMetric(cell(b, t, mid, 3), "oppHA-rejBW-%")
	b.ReportMetric(cell(b, t, mid, 6), "oppHA-WCS-%")
}

// BenchmarkFig13Enforcement regenerates Fig. 13 (TAG guarantees under
// ElasticSwitch).
func BenchmarkFig13Enforcement(b *testing.B) {
	t := runExperiment(b, "fig13")
	last := len(t.Rows) - 1 // 5 senders
	b.ReportMetric(cell(b, t, last, 1), "X-to-Z-Mbps")
}

// BenchmarkStormScenario regenerates the Fig. 3 cross-branch analysis.
func BenchmarkStormScenario(b *testing.B) {
	t := runExperiment(b, "storm")
	b.ReportMetric(cell(b, t, 0, 1), "TAG-Mbps")
	b.ReportMetric(cell(b, t, 1, 1), "VOC-Mbps")
}

// BenchmarkInferenceAMI regenerates the §3 inference evaluation.
func BenchmarkInferenceAMI(b *testing.B) {
	t := runExperiment(b, "inference")
	b.ReportMetric(cell(b, t, 1, 1), "mean-AMI")
}

// BenchmarkPlacementRuntime measures single-tenant placement latency per
// algorithm and tenant size — the §5.1 runtime comparison. Unlike the
// experiment table, this uses the benchmark framework's own timing.
func BenchmarkPlacementRuntime(b *testing.B) {
	sizes := []int{10, 50, 100, 250}
	algos := []struct {
		name string
		mk   func(*topology.Tree) place.Placer
		mod  func(*tag.Graph) place.Model
		cap  int
	}{
		{"CM", func(t *topology.Tree) place.Placer { return cloudmirror.New(t) }, func(g *tag.Graph) place.Model { return g }, 1 << 30},
		{"OVOC", func(t *topology.Tree) place.Placer { return oktopus.New(t) }, func(g *tag.Graph) place.Model { return voc.FromTAG(g) }, 1 << 30},
		{"SecondNet", func(t *topology.Tree) place.Placer { return secondnet.New(t) }, func(g *tag.Graph) place.Model { return pipe.FromTAG(g) }, 100},
	}
	for _, algo := range algos {
		for _, size := range sizes {
			if size > algo.cap {
				continue
			}
			b.Run(algo.name+"/"+strconv.Itoa(size)+"VMs", func(b *testing.B) {
				g := benchTenant(size)
				tree := topology.New(topology.MediumSpec())
				placer := algo.mk(tree)
				model := algo.mod(g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := placer.Place(&place.Request{Graph: g, Model: model})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					res.Release()
					b.StartTimer()
				}
			})
		}
	}
}

func benchTenant(size int) *tag.Graph {
	g := tag.New("bench")
	tiers := 5
	per := size / tiers
	for i := 0; i < tiers; i++ {
		n := per
		if i < size-per*tiers {
			n++
		}
		if n == 0 {
			n = 1
		}
		g.AddTier("t"+strconv.Itoa(i), n)
	}
	for i := 0; i+1 < tiers; i++ {
		g.AddBidirectional(i, i+1, 50, 50)
	}
	g.AddSelfLoop(tiers-1, 20)
	return g
}

// --- micro-benchmarks of the core primitives ---

// BenchmarkTAGCut measures Eq. 1 evaluation on a bing-sized tenant.
func BenchmarkTAGCut(b *testing.B) {
	pool := workload.BingLike(1)
	g := pool[79] // the 732-VM tenant
	inside := make([]int, g.Tiers())
	for i := range inside {
		inside[i] = g.TierSize(i) / 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Cut(inside)
	}
}

// BenchmarkMaxMin measures the fluid allocator on a 3-link, 100-flow
// network.
func BenchmarkMaxMin(b *testing.B) {
	n := netem.New()
	var links []netem.LinkID
	for _, l := range []struct {
		name string
		cap  float64
	}{{"a", 1000}, {"b", 2000}, {"c", 500}} {
		id, err := n.AddLink(l.name, l.cap)
		if err != nil {
			b.Fatal(err)
		}
		links = append(links, id)
	}
	flows := make([]netem.Flow, 100)
	for i := range flows {
		flows[i] = netem.Flow{Path: []netem.LinkID{links[i%3], links[(i+1)%3]}, Demand: netem.Greedy}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.MaxMin(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResize measures in-place auto-scaling: grow a deployed
// tenant's web tier by 10 VMs and shrink it back.
func BenchmarkResize(b *testing.B) {
	tree := topology.New(topology.MediumSpec())
	p := cloudmirror.New(tree)
	small := tag.New("t")
	small.AddTier("web", 20)
	small.AddTier("logic", 10)
	small.AddBidirectional(0, 1, 50, 100)
	big := small.Clone()
	big = tag.New("t")
	big.AddTier("web", 30)
	big.AddTier("logic", 10)
	big.AddBidirectional(0, 1, 50, 100)

	res, err := p.Place(&place.Request{Graph: small, Model: small})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = p.Resize(res, small, big, 0, place.HASpec{})
		if err != nil {
			b.Fatal(err)
		}
		res, err = p.Resize(res, big, small, 0, place.HASpec{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res.Release()
}

// BenchmarkControllerStep measures one enforcement control period with
// 50 active pairs.
func BenchmarkControllerStep(b *testing.B) {
	g := tag.New("ctl")
	g.AddTier("C1", 50)
	g.AddTier("C2", 1)
	g.AddEdge(0, 1, 10, 500)
	dep := enforce.NewDeployment(g)
	n := netem.New()
	link, err := n.AddLink("l", 1000)
	if err != nil {
		b.Fatal(err)
	}
	pairs := make([]enforce.Pair, 50)
	paths := make([][]netem.LinkID, 50)
	for i := range pairs {
		pairs[i] = enforce.Pair{Src: i, Dst: 50, Demand: netem.Greedy}
		paths[i] = []netem.LinkID{link}
	}
	c := enforce.NewController(n, enforce.NewTAGPartitioner(dep), 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(pairs, paths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataplaneStep measures one full enforcement control period
// — GP fan-out, RA, limiter update — over a shard-sized fabric with 32
// tenants under default (all-pairs backlogged) demands.
func BenchmarkDataplaneStep(b *testing.B) {
	svc, err := guarantee.New(topology.SmallSpec(),
		guarantee.WithEnforcement(guarantee.EnforcementConfig{}))
	if err != nil {
		b.Fatal(err)
	}
	g := tag.New("t")
	g.AddTier("web", 4)
	g.AddTier("db", 2)
	g.AddBidirectional(0, 1, 50, 100)
	for i := 0; i < 32; i++ {
		if _, err := svc.Admit(context.Background(), guarantee.Request{ID: int64(i), Graph: g}); err != nil {
			b.Fatal(err)
		}
	}
	enf := svc.Enforcement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enf.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLouvain measures community detection on a 200-VM trace.
func BenchmarkLouvain(b *testing.B) {
	g := tag.New("bench")
	for i := 0; i < 5; i++ {
		g.AddTier("t"+strconv.Itoa(i), 40)
	}
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1, 50, 50)
	}
	series, _, err := trace.Synthesize(g, 3, 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	graph := infer.SimilarityGraph(series.Mean())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infer.Louvain(graph, 1)
	}
}
