package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quick() Options { return Options{Quick: true, Seed: 1} }

// parse strips formatting ("12.3%", "4.5 (1.2)") and returns the leading
// float of a cell.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(strings.Fields(cell)[0], "%")
	cell = strings.TrimSuffix(cell, "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", cell, err)
	}
	return v
}

func TestRegistryRunsEverything(t *testing.T) {
	if len(Names()) != 19 {
		t.Fatalf("registry has %d experiments: %v", len(Names()), Names())
	}
	if _, err := Run("nope", quick()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTablePrinting(t *testing.T) {
	tb, err := Run("storm", quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"storm", "Model", "TAG", "VOC"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

// TestTable1Shape: CM+VOC and OVOC reserve at least as much as CM+TAG at
// every level, with the agg-level gap the widest (the paper's headline
// Table 1 shape).
func TestTable1Shape(t *testing.T) {
	tb, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	tagServer, tagToR, tagAgg := parse(t, tb.Cell(0, 1)), parse(t, tb.Cell(0, 2)), parse(t, tb.Cell(0, 3))
	vocToR, vocAgg := parse(t, tb.Cell(1, 2)), parse(t, tb.Cell(1, 3))
	ovocToR := parse(t, tb.Cell(2, 2))

	if tagServer <= 0 || tagToR <= 0 {
		t.Fatalf("CM+TAG reservations empty: %v", tb.Rows)
	}
	if vocToR < tagToR {
		t.Errorf("VOC ToR %g below TAG %g (violates footnote 7)", vocToR, tagToR)
	}
	if vocAgg < tagAgg {
		t.Errorf("VOC agg %g below TAG %g", vocAgg, tagAgg)
	}
	if ovocToR < tagToR {
		t.Errorf("OVOC ToR %g below CM+TAG %g", ovocToR, tagToR)
	}
}

// TestFig13Shape: X→Z holds ≥450 for every sender count and takes the
// whole link alone.
func TestFig13Shape(t *testing.T) {
	tb, err := Fig13(quick())
	if err != nil {
		t.Fatal(err)
	}
	if x0 := parse(t, tb.Cell(0, 1)); x0 != 1000 {
		t.Errorf("k=0: X→Z = %g, want 1000", x0)
	}
	for i := 1; i < len(tb.Rows); i++ {
		x := parse(t, tb.Cell(i, 1))
		c2 := parse(t, tb.Cell(i, 2))
		if x < 450 {
			t.Errorf("row %d: X→Z = %g dropped below the 450 guarantee", i, x)
		}
		if c2 < 450 {
			t.Errorf("row %d: C2→Z = %g below its 450 guarantee", i, c2)
		}
	}
}

// TestFig4Shape: hose breaks the 500 guarantee, TAG holds it.
func TestFig4Shape(t *testing.T) {
	tb, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	hoseWeb := parse(t, tb.Cell(0, 1))
	tagWeb := parse(t, tb.Cell(1, 1))
	if hoseWeb >= 500 {
		t.Errorf("hose web rate %g; expected the guarantee to break", hoseWeb)
	}
	if tagWeb < 500 {
		t.Errorf("TAG web rate %g; expected ≥ 500", tagWeb)
	}
}

// TestStormShape: pipe ≤ TAG ≤ VOC ≤ hose on the cross-branch cut, with
// TAG at the true requirement S·B = 1000 and VOC at twice that.
func TestStormShape(t *testing.T) {
	tb, err := Storm(quick())
	if err != nil {
		t.Fatal(err)
	}
	tagOut := parse(t, tb.Cell(0, 1))
	vocOut := parse(t, tb.Cell(1, 1))
	hoseOut := parse(t, tb.Cell(2, 1))
	pipeOut := parse(t, tb.Cell(3, 1))
	if tagOut != 1000 {
		t.Errorf("TAG out = %g, want 1000", tagOut)
	}
	if vocOut != 2000 {
		t.Errorf("VOC out = %g, want 2000 (the Fig. 3 over-reservation)", vocOut)
	}
	if !(pipeOut <= tagOut && tagOut <= vocOut && vocOut <= hoseOut) {
		t.Errorf("ordering violated: pipe=%g tag=%g voc=%g hose=%g", pipeOut, tagOut, vocOut, hoseOut)
	}
}

// TestFig7Shape: OVOC's bandwidth rejection meets or exceeds CM's at
// every operating point, and the gap is material at the stressed end.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation experiment")
	}
	tb := quickRun(t, "fig7", 1)
	worstGap := 0.0
	for i := range tb.Rows {
		cm := parse(t, tb.Cell(i, 2))
		ovoc := parse(t, tb.Cell(i, 3))
		if cm > ovoc+3 { // percent points; allow sim noise
			t.Errorf("row %v: CM %g%% > OVOC %g%%", tb.Rows[i][:2], cm, ovoc)
		}
		if gap := ovoc - cm; gap > worstGap {
			worstGap = gap
		}
	}
	if worstGap < 3 {
		t.Errorf("max OVOC-CM gap = %.1f%%, expected a clear CM advantage somewhere", worstGap)
	}
}

// TestFig11Shape: both algorithms achieve the required WCS.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation experiment")
	}
	tb := quickRun(t, "fig11", 1)
	for i := range tb.Rows {
		rwcs := parse(t, tb.Cell(i, 0))
		cmWCS := parse(t, tb.Cell(i, 1))
		ovocWCS := parse(t, tb.Cell(i, 3))
		// Eq. 7's max(1, ·) cap means tiers smaller than 1/(1-RWCS)
		// cannot physically reach the target (a 2-VM tier tops out at
		// 50%), so the pool mean sits slightly below high RWCS values.
		floor := rwcs*0.9 - 1
		if cmWCS < floor || ovocWCS < floor {
			t.Errorf("RWCS %g%%: achieved CM %g%%, OVOC %g%%", rwcs, cmWCS, ovocWCS)
		}
	}
}

// TestFig12Shape: opportunistic HA achieves (near-)guaranteed WCS at
// (near-)default rejection.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation experiment")
	}
	tb := quickRun(t, "fig12", 1)
	for i := range tb.Rows {
		cmRej := parse(t, tb.Cell(i, 1))
		oppRej := parse(t, tb.Cell(i, 3))
		cmWCS := parse(t, tb.Cell(i, 4))
		oppWCS := parse(t, tb.Cell(i, 6))
		if oppRej > cmRej+6 {
			t.Errorf("row %d: oppHA rejection %g%% far above CM %g%%", i, oppRej, cmRej)
		}
		if oppWCS < cmWCS {
			t.Errorf("row %d: oppHA WCS %g%% below plain CM %g%%", i, oppWCS, cmWCS)
		}
	}
}

// TestInferenceShape: the mean AMI lands in the paper's "substantial but
// imperfect" band.
func TestInferenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("clusters 80 applications")
	}
	tb, err := Inference(quick())
	if err != nil {
		t.Fatal(err)
	}
	ami := parse(t, tb.Cell(1, 1))
	if ami < 0.3 || ami > 0.95 {
		t.Errorf("mean AMI = %g, want the 0.4-0.9 band around the paper's 0.54", ami)
	}
}

// TestFig1Shape: the table has 10 workloads + 4 datacenters.
func TestFig1Shape(t *testing.T) {
	tb, err := Fig1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 14 {
		t.Errorf("Fig 1 rows = %d, want 14", len(tb.Rows))
	}
}

// TestBingStatsShape: the pool matches the published statistics.
func TestBingStatsShape(t *testing.T) {
	tb, err := BingStats(quick())
	if err != nil {
		t.Fatal(err)
	}
	if largest := parse(t, tb.Cell(2, 1)); largest != 732 {
		t.Errorf("largest tenant = %g, want 732", largest)
	}
	perComp := parse(t, tb.Cell(4, 1))
	agg := parse(t, tb.Cell(5, 1))
	if perComp < 70 || agg > perComp {
		t.Errorf("traffic split per-comp=%g%% agg=%g%% off the published shape", perComp, agg)
	}
}

// TestRuntimeShape: placements complete and SecondNet is the slowest
// where measured.
func TestRuntimeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timed placements")
	}
	tb, err := Runtime(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tb.Rows {
		if row[1] == "" || row[2] == "" {
			t.Errorf("missing timing in row %v", row)
		}
	}
}
