package experiments

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cloudmirror/guarantee"
	"cloudmirror/internal/enforce"
	"cloudmirror/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestEnforcementFiguresGolden: the printed fig4, fig13 and fig13dyn
// tables at quick() scale must match the committed golden file
// byte-for-byte, so a change to GP, RA or the max-min solver that moves
// a printed rate fails here by figure. Regenerate with -update after a
// deliberate change and commit the diff.
func TestEnforcementFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"fig4", "fig13", "fig13dyn"} {
		tb, err := Run(name, quick())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tb.Fprint(&buf)
	}
	golden := filepath.Join("testdata", "enforcement.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("enforcement figures differ from %s (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
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
