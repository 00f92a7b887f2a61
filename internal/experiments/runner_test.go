package experiments

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"cloudmirror/internal/sim"
)

func render(t *testing.T, tb *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tb.Fprint(&buf)
	return buf.String()
}

// runKey identifies one memoised quick-scale run.
type runKey struct {
	name           string
	workers, procs int
}

var runs = map[runKey]*Table{}

// sweepWorkers are the worker counts every Figs. 7–12 sweep is computed
// at: the serial reference and an uneven pool.
var sweepWorkers = []int{1, 6}

// quickRun returns Run(name, Options{Quick: true, Seed: 1, Workers:
// workers}), computed once per (name, workers, GOMAXPROCS) and shared by
// every test of the package: each sweep serves TestParallelDeterminism,
// TestPaperGolden and the shape tests from one computation per worker
// count. GOMAXPROCS is part of the key so -cpu=1,4,8 still recomputes
// every run at each pool size. Callers must not modify the table.
func quickRun(t *testing.T, name string, workers int) *Table {
	t.Helper()
	k := runKey{name, workers, runtime.GOMAXPROCS(0)}
	if tb, ok := runs[k]; ok {
		return tb
	}
	tb, err := Run(name, Options{Quick: true, Seed: 1, Workers: workers})
	if err != nil {
		t.Fatalf("%s workers=%d: %v", name, workers, err)
	}
	runs[k] = tb
	return tb
}

// TestParallelDeterminism: same seed ⇒ bit-identical Table output at
// every worker count, including the GOMAXPROCS default (Workers: 0) —
// run with -cpu=1,4,8 to exercise different default pool sizes. Short
// mode checks the cheap Table 1 family; the full run sweeps every
// placement figure.
func TestParallelDeterminism(t *testing.T) {
	names := []string{"table1", "table1hpc", "table1syn", "churn"}
	workerCounts := []int{1, 2, 5, 0}
	if !testing.Short() {
		names = append(names, "baselines", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")
		// Serial reference vs an uneven worker count (0, GOMAXPROCS,
		// is covered by the short-mode table1 family at -cpu=1,4,8).
		workerCounts = sweepWorkers
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var ref string
			for i, w := range workerCounts {
				out := render(t, quickRun(t, name, w))
				if i == 0 {
					ref = out
					continue
				}
				if out != ref {
					t.Errorf("workers=%d output differs from workers=%d:\n--- want ---\n%s\n--- got ---\n%s",
						w, workerCounts[0], ref, out)
				}
			}
		})
	}
}

// TestParallelSeedSensitivity guards against points accidentally
// sharing RNG state: different seeds must produce different tables
// (with overwhelming probability), parallel or not.
func TestParallelSeedSensitivity(t *testing.T) {
	a, err := Run("table1", Options{Quick: true, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("table1", Options{Quick: true, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if render(t, a) == render(t, b) {
		t.Error("seeds 1 and 2 produced identical Table 1 output")
	}
}

// TestRunPointsErrorPropagation: a failing sweep point aborts the
// experiment with the lowest-index error, matching the serial engine.
func TestRunPointsErrorPropagation(t *testing.T) {
	sentinel := errors.New("point failed")
	points := make([]point, 10)
	for i := range points {
		if i == 3 || i == 7 {
			points[i] = func() (*sim.Result, error) { return nil, sentinel }
		} else {
			points[i] = func() (*sim.Result, error) { return &sim.Result{}, nil }
		}
	}
	if _, err := runPoints(Options{Workers: 4}, points); !errors.Is(err, sentinel) {
		t.Errorf("runPoints error = %v, want %v", err, sentinel)
	}
}
