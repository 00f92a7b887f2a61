// Package experiments regenerates every table and figure of the
// CloudMirror paper's evaluation (§5). Each experiment returns a Table
// whose rows mirror the series the paper plots; cmd/experiments prints
// them and the repository benchmarks run reduced-scale versions.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Options controls experiment scale and reproducibility.
type Options struct {
	// Quick runs a reduced-scale version (small topology, fewer
	// arrivals) suitable for benchmarks and CI; the full scale matches
	// the paper (2048 servers, 10,000 arrivals).
	Quick bool
	// Seed drives all randomness. The default 0 is a valid seed.
	Seed int64
	// Workers bounds how many sweep points of one experiment run
	// concurrently. 0 (the default) means GOMAXPROCS; 1 forces the
	// serial order. Output is bit-identical at any value: every sweep
	// point builds its own topology tree, tenant pool and freshly
	// constructed RNG (seeded from Seed, exactly as the serial order
	// does), and rows are assembled in the fixed sweep order
	// regardless of completion order.
	Workers int
}

// Table is one regenerated artifact.
type Table struct {
	// Name is the experiment ID (e.g., "table1", "fig7").
	Name string
	// Title describes the artifact as in the paper.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data, stringified for printing.
	Rows [][]string
	// Notes records the fixed parameters of the run.
	Notes string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(w, "   (%s)\n", t.Notes)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Cell returns the raw cell (row, col) for programmatic checks in tests
// and benchmarks.
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }

// Func runs one experiment.
type Func func(Options) (*Table, error)

// registry maps experiment IDs to implementations.
var registry = map[string]Func{
	"fig1":      Fig1,
	"table1":    Table1,
	"table1hpc": Table1HPCloud,
	"table1syn": Table1Synthetic,
	"baselines": Baselines,
	"churn":     ChurnSweep,
	"fig4":      Fig4,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"fig13":     Fig13,
	"fig13dyn":  Fig13Dynamic,
	"storm":     Storm,
	"bingstats": BingStats,
	"inference": Inference,
	"runtime":   Runtime,
}

// Names returns all experiment IDs, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes the named experiment.
func Run(name string, o Options) (*Table, error) {
	fn, ok := registry[name]
	if !ok {
		//cloudlint:unwrapped CLI-facing usage error; callers print it, nothing matches on it
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return fn(o)
}

// formatting helpers shared by the experiment files.

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func gbps(mbps float64) string {
	return fmt.Sprintf("%.1f", mbps/1000)
}
