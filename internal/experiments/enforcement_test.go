package experiments

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cloudmirror/guarantee"
	"cloudmirror/internal/enforce"
	"cloudmirror/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// paperFigures are the artifacts testdata/paper.golden pins, in file
// order: Table 1, Fig. 1, the placement sweeps of Figs. 7–12, and the
// enforcement figures. None prints a wall-clock column.
var paperFigures = []string{"table1", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig4", "fig13", "fig13dyn"}

// sweeps are the multi-simulation figures -short skips.
var sweeps = map[string]bool{"fig7": true, "fig8": true, "fig9": true, "fig10": true, "fig11": true, "fig12": true}

// TestPaperGolden: the printed tables of every paper figure at quick()
// scale must match testdata/paper.golden byte for byte, so a change to
// placement, GP, RA or the max-min solver that moves a printed number
// fails here by figure, with the figure's largest absolute and relative
// change. A sweep is checked at both of sweepWorkers, every other
// figure at the default worker count. -short skips the multi-simulation
// sweeps of Figs. 7–12, as the shape tests do. Regenerate with -update
// after a deliberate change and commit the diff.
func TestPaperGolden(t *testing.T) {
	golden := filepath.Join("testdata", "paper.golden")
	type printed struct {
		name    string
		workers int
		out     string
	}
	var got []printed
	var all bytes.Buffer
	for _, name := range paperFigures {
		if testing.Short() && !*updateGolden && sweeps[name] {
			continue
		}
		workers := []int{0}
		if sweeps[name] {
			workers = sweepWorkers
		}
		for i, w := range workers {
			out := render(t, quickRun(t, name, w))
			got = append(got, printed{name, w, out})
			if i == 0 {
				all.WriteString(out)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := map[string]string{}
	for _, sec := range strings.SplitAfter(string(b), "\n\n") {
		name, _, _ := strings.Cut(strings.TrimPrefix(sec, "== "), ":")
		want[name] = sec
	}
	for _, g := range got {
		if g.out == want[g.name] {
			continue
		}
		abs, rel := maxDelta(g.out, want[g.name])
		t.Errorf("%s (workers=%d) differs from %s: max |Δ| %.4g, max relative Δ %.4g (regenerate with -update if deliberate)\ngot:\n%swant:\n%s",
			g.name, g.workers, golden, abs, rel, g.out, want[g.name])
	}
}

// number matches the numbers of a printed table cell.
var number = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?`)

// maxDelta compares two printings of one table number by number, line
// by line, and returns the largest absolute and relative difference;
// +Inf when their shapes differ.
func maxDelta(got, want string) (abs, rel float64) {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		return math.Inf(1), math.Inf(1)
	}
	for i := range gl {
		gn, wn := number.FindAllString(gl[i], -1), number.FindAllString(wl[i], -1)
		if len(gn) != len(wn) {
			return math.Inf(1), math.Inf(1)
		}
		for j := range gn {
			a, _ := strconv.ParseFloat(gn[j], 64)
			b, _ := strconv.ParseFloat(wn[j], 64)
			d := math.Abs(a - b)
			abs = math.Max(abs, d)
			if d > 0 {
				rel = math.Max(rel, d/math.Max(math.Abs(a), math.Abs(b)))
			}
		}
	}
	return abs, rel
}

// TestHosePartitioningFig4: the aggregated hose model cannot protect the
// web→logic guarantee under congestion: with one web and one db sender,
// the hose GP gives web only 300 of its 500 (the paper's 300:300 split),
// while the TAG keeps the two communications isolated.
func TestHosePartitioningFig4(t *testing.T) {
	dep, _, pairs, _, err := fig4Scenario()
	if err != nil {
		t.Fatal(err)
	}
	hose := hosePartitioner{dep}.AppendPairGuarantees(nil, pairs)
	if math.Abs(hose[0]-300) > 1e-6 || math.Abs(hose[1]-100) > 1e-6 {
		t.Errorf("hose GP = %v, want [300 100] (logic's 600 split across 2 sources, db capped by own snd)", hose)
	}
	tagGP := enforce.NewTAGPartitioner(dep).AppendPairGuarantees(nil, pairs)
	if math.Abs(tagGP[0]-500) > 1e-6 || math.Abs(tagGP[1]-100) > 1e-6 {
		t.Errorf("TAG GP = %v, want [500 100]", tagGP)
	}
}

// TestHoseFailsUnderCongestionFig4: end-to-end contrast on the Fig. 4
// bottleneck: with hose GP the web flow falls under its 500 guarantee;
// with TAG GP it holds.
func TestHoseFailsUnderCongestionFig4(t *testing.T) {
	dep, n, pairs, paths, err := fig4Scenario()
	if err != nil {
		t.Fatal(err)
	}
	tagAlloc, err := enforce.WorkConservingRates(n, pairs, paths, enforce.NewTAGPartitioner(dep))
	if err != nil {
		t.Fatal(err)
	}
	if tagAlloc.Rates[0] < 500-1e-6 {
		t.Errorf("TAG enforcement: web = %g, want ≥ 500", tagAlloc.Rates[0])
	}
	hoseAlloc, err := enforce.WorkConservingRates(n, pairs, paths, hosePartitioner{dep})
	if err != nil {
		t.Fatal(err)
	}
	if hoseAlloc.Rates[0] >= 500 {
		t.Errorf("hose enforcement: web = %g, expected it to fail the 500 guarantee", hoseAlloc.Rates[0])
	}
}

// TestHosePartitionerBreaksGuarantee: Fig. 4's hose row breaks the
// web→logic guarantee, and the service's own enforcement plane — the
// tenant admitted through guarantee.New on the 1-slot, 600 Mbps fleet
// examples/threetier uses — holds it, printing exactly Fig. 4's TAG row.
func TestHosePartitionerBreaksGuarantee(t *testing.T) {
	tb, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if hose := parse(t, tb.Cell(0, 1)); hose >= 500 {
		t.Errorf("Fig. 4 hose row: web→logic %g Mbps, expected the breakage (< 500)", hose)
	}

	dep, _, _, _, err := fig4Scenario()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := guarantee.New(topology.Spec{
		SlotsPerServer: 1,
		Levels:         []topology.LevelSpec{{Name: "server", Fanout: 4, Uplink: 600}},
	}, guarantee.WithEnforcement(guarantee.EnforcementConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := svc.Admit(context.Background(), guarantee.Request{Graph: dep.Graph()})
	if err != nil {
		t.Fatal(err)
	}
	enf := svc.Enforcement()
	if err := enf.SetDemand(grant, []guarantee.Demand{
		{Src: 0, Dst: 1, Mbps: guarantee.Greedy},
		{Src: 2, Dst: 1, Mbps: guarantee.Greedy},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := enf.Converge(0, 0); err != nil {
		t.Fatal(err)
	}
	flows, err := enf.Pairs(grant)
	if err != nil {
		t.Fatal(err)
	}
	if flows[0].Rate < 500-1e-6 {
		t.Errorf("service: web→logic %g Mbps, want ≥ 500", flows[0].Rate)
	}
	if web, db := f1(flows[0].Rate), f1(flows[1].Rate); web != tb.Cell(1, 1) || db != tb.Cell(1, 2) {
		t.Errorf("service: web→logic %s, db→logic %s; Fig. 4's TAG row says %s, %s",
			web, db, tb.Cell(1, 1), tb.Cell(1, 2))
	}
}
