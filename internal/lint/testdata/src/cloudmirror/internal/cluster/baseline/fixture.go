// Package baseline sits under the cluster, which the baselines rule
// checks: it imports a baseline placer directly and reaches a baseline
// model through a helper, and both must be reported.
package baseline

import (
	"cloudmirror/internal/place/oktopus" // want `import of cloudmirror/internal/place/oktopus breaches the baselines boundary`
	"cloudmirror/internal/pricing"       // want `reaches cloudmirror/internal/voc \(via cloudmirror/internal/pricing -> cloudmirror/internal/voc\) breaching the baselines boundary`
)

// Place mixes a baseline into the service's admission path.
func Place() int { return oktopus.New() + pricing.Price() }
