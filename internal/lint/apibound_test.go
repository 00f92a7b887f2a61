package lint_test

import (
	"testing"

	"cloudmirror/internal/lint"
	"cloudmirror/internal/lint/linttest"
)

// TestAPIBound covers all six boundary rules: direct imports
// (cmd/direct, cmd/placers, cmd/enforcei, internal/walclient),
// type-resolved banned objects under the default and an aliased
// package name (cmd/plain, cmd/aliased), transitive breaches through a
// laundering helper (cmd/launder, and internal/cluster/baseline, which
// also imports a baseline placer and the hose model directly), and the
// sanctioned negatives — the guarantee gateway (cmd/sanctioned), the
// wal allow list (cmd/bwd), and the service packages themselves, which
// reach no baseline (guarantee, internal/cluster).
func TestAPIBound(t *testing.T) {
	linttest.Run(t, lint.APIBoundAnalyzer,
		"cloudmirror/cmd/direct",
		"cloudmirror/cmd/plain",
		"cloudmirror/cmd/aliased",
		"cloudmirror/cmd/launder",
		"cloudmirror/cmd/placers",
		"cloudmirror/cmd/enforcei",
		"cloudmirror/cmd/sanctioned",
		"cloudmirror/cmd/bwd",
		"cloudmirror/internal/walclient",
		"cloudmirror/internal/cluster/baseline",
		"cloudmirror/guarantee",
		"cloudmirror/internal/cluster",
	)
}
