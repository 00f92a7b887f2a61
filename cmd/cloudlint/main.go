// Command cloudlint runs the repository's analyzer suite (internal/lint):
// mapiter, floatorder, nodrift, apibound and errwrap — the machine-checked
// form of the determinism and public-API invariants that the determinism
// suite and crash-recovery replay rely on.
//
// Usage (what `make analyze` runs):
//
//	cloudlint [-mapiter] [-floatorder] [-nodrift] [-apibound] [-errwrap] [packages]
//
// With no analyzer flags the whole suite runs; naming flags selects a
// subset (`cloudlint -apibound ./...` checks only the API boundaries).
// Packages default to ./... and are loaded with full module import-graph
// visibility, so apibound checks transitive boundary breaches.
//
// Exit status: 0 clean, 1 on a driver error or when findings are
// reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cloudmirror/internal/lint"
	"cloudmirror/internal/lint/analysis"
	"cloudmirror/internal/lint/driver"
)

func main() {
	os.Exit(run())
}

func run() int {
	all := lint.Analyzers()

	fs := flag.NewFlagSet("cloudlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cloudlint [analyzer flags] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(fs.Output(), "  -%-12s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	selected := map[string]*bool{}
	for _, a := range all {
		selected[a.Name] = fs.Bool(a.Name, false, firstLine(a.Doc))
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 1
	}
	analyzers := pick(all, fs, selected)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, ix, err := driver.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudlint: %v\n", err)
		return 1
	}
	findings, err := driver.Run(pkgs, analyzers, driver.ModuleImportsFunc(ix))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudlint: %v\n", err)
		return 1
	}
	driver.Print(os.Stdout, findings)
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// pick returns the analyzers whose flags were set, or all of them when
// no analyzer flag was given.
func pick(all []*analysis.Analyzer, fs *flag.FlagSet, selected map[string]*bool) []*analysis.Analyzer {
	any := false
	for _, a := range all {
		if *selected[a.Name] {
			any = true
			break
		}
	}
	if !any {
		return all
	}
	var subset []*analysis.Analyzer
	for _, a := range all {
		if *selected[a.Name] {
			subset = append(subset, a)
		}
	}
	return subset
}

// firstLine returns the first line of s.
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
