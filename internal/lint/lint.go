// Package lint holds the cloudlint analyzer suite: five static checks
// that turn this repository's hand-enforced determinism and
// API-boundary invariants into machine-checked facts.
//
//   - mapiter: no unordered map iteration in deterministic packages.
//   - floatorder: no float accumulation driven by map iteration order.
//   - nodrift: no wall clocks, global RNG, or environment reads in
//     deterministic packages.
//   - apibound: the public-API boundary rules (config.go), checked on
//     the real import graph and resolved objects.
//   - errwrap: errors returned around internal/netem wrap a typed
//     sentinel, preserving the ErrBadInput taxonomy.
//
// Suppressions are justification comments checked by the analyzers
// themselves: //cloudlint:ordered <why> (mapiter, floatorder),
// //cloudlint:wallclock <why> (nodrift), //cloudlint:unwrapped <why>
// (errwrap). An empty justification is itself a finding, so every
// suppression in the tree carries its reason next to the code.
//
// The analyzers are written against internal/lint/analysis, a small
// stdlib-only mirror of golang.org/x/tools/go/analysis (unavailable in
// the build environment), and run through cmd/cloudlint (`make
// analyze`).
package lint

import "cloudmirror/internal/lint/analysis"

// Analyzers returns the full cloudlint suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIterAnalyzer,
		FloatOrderAnalyzer,
		NoDriftAnalyzer,
		APIBoundAnalyzer,
		ErrWrapAnalyzer,
	}
}
