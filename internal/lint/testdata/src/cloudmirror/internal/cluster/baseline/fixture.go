// Package baseline sits under the cluster, which the baselines rule
// checks: it imports a baseline placer and the hose model directly and
// reaches a baseline model through a helper, and all three must be
// reported.
package baseline

import (
	"cloudmirror/internal/hose"          // want `import of cloudmirror/internal/hose breaches the baselines boundary`
	"cloudmirror/internal/place/oktopus" // want `import of cloudmirror/internal/place/oktopus breaches the baselines boundary`
	"cloudmirror/internal/pricing"       // want `reaches cloudmirror/internal/voc \(via cloudmirror/internal/pricing -> cloudmirror/internal/voc\) breaching the baselines boundary`
)

// Place mixes baselines into the service's admission path.
func Place() int { return oktopus.New() + pricing.Price() + hose.FromTAG() }
