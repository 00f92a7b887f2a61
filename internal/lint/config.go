package lint

import "strings"

// deterministicPkgs lists the packages whose outputs the determinism
// suite (make determinism, the differential harnesses, crash-recovery
// replay) requires to be byte-identical across runs, worker counts and
// recoveries. mapiter, floatorder and nodrift enforce their source
// invariants only inside these packages and their subpackages.
var deterministicPkgs = []string{
	"cloudmirror/internal/sim",
	"cloudmirror/internal/place",
	"cloudmirror/internal/cluster",
	"cloudmirror/internal/topology",
	"cloudmirror/internal/netem",
	"cloudmirror/internal/dataplane",
	"cloudmirror/internal/enforce",
	"cloudmirror/internal/wal",
	"cloudmirror/guarantee",
}

// IsDeterministicPkg reports whether the import path is one of the
// deterministic packages (or a subpackage of one, like the placer
// packages under internal/place).
func IsDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// BoundaryRule is one public-API boundary contract checked by apibound.
// Rules are plain data so a new boundary is a one-entry addition to
// boundaryRules below.
type BoundaryRule struct {
	// Name identifies the rule in diagnostics.
	Name string
	// Forbidden lists package paths the checked packages must not
	// import (directly, or transitively other than through a Gateway).
	Forbidden []string
	// Objects maps a package path to exported names in it that checked
	// packages must not reference, even though importing the package
	// is otherwise allowed. Resolved through the type checker, so
	// aliased and dot imports cannot evade it.
	Objects map[string][]string
	// Checked lists import-path prefixes the rule applies to.
	Checked []string
	// Allowed lists import-path prefixes exempt from the rule even
	// when they fall under Checked.
	Allowed []string
	// Gateways lists packages the transitive-import walk does not
	// descend into: reaching a forbidden package through a gateway is
	// the sanctioned route (e.g. guarantee wrapping the admitters).
	Gateways []string
	// Hint names the sanctioned alternative, shown in diagnostics.
	Hint string
}

// cmdAndExamples is the checked surface of rules 1-4: binaries and
// examples.
var cmdAndExamples = []string{"cloudmirror/cmd", "cloudmirror/examples"}

// guaranteeGateway is the sanctioned route to every internal admission
// and enforcement package.
var guaranteeGateway = []string{"cloudmirror/guarantee"}

// boundaryRules carries the six public-API boundary contracts.
var boundaryRules = []BoundaryRule{
	{
		Name:      "cluster",
		Forbidden: []string{"cloudmirror/internal/cluster"},
		Checked:   cmdAndExamples,
		Gateways:  guaranteeGateway,
		Hint:      "use guarantee.New",
	},
	{
		Name: "place-admission",
		Objects: map[string][]string{
			"cloudmirror/internal/place": {"NewAdmitter", "Admitter", "Admitted"},
		},
		Checked: cmdAndExamples,
		Hint:    "use guarantee.Service",
	},
	{
		Name: "placer",
		Forbidden: []string{
			"cloudmirror/internal/place/cloudmirror",
			"cloudmirror/internal/place/oktopus",
			"cloudmirror/internal/place/secondnet",
		},
		Checked: cmdAndExamples,
		// internal/experiments drives the paper sweeps over the
		// placers directly; cmd/experiments reaching them through it
		// is the sanctioned route.
		Gateways: append([]string{"cloudmirror/internal/experiments"}, guaranteeGateway...),
		Hint:     "use guarantee.New (CloudMirror), or an internal/experiments algorithm for the variants and baselines",
	},
	{
		Name: "baselines",
		Forbidden: []string{
			"cloudmirror/internal/place/oktopus",
			"cloudmirror/internal/place/secondnet",
			"cloudmirror/internal/voc",
			"cloudmirror/internal/pipe",
		},
		// The service is CloudMirror pricing tenants by their TAG; the
		// paper's comparison baselines and their bandwidth models belong
		// to the experiments, never to production configuration.
		Checked: []string{"cloudmirror/guarantee", "cloudmirror/internal/cluster"},
		Hint:    "the service runs CloudMirror under the TAG: compare baselines through internal/experiments",
	},
	{
		Name: "enforcement",
		Forbidden: []string{
			"cloudmirror/internal/enforce",
			"cloudmirror/internal/netem",
			"cloudmirror/internal/dataplane",
		},
		Checked: cmdAndExamples,
		// The simulator and the experiment engine orchestrate
		// enforcement internally; binaries reaching the dataplane
		// through them (cmd/simulate -> sim -> dataplane) is
		// sanctioned — constructing it themselves is not.
		Gateways: append([]string{
			"cloudmirror/internal/sim",
			"cloudmirror/internal/experiments",
		}, guaranteeGateway...),
		Hint: "use guarantee.WithEnforcement",
	},
	{
		Name:      "wal",
		Forbidden: []string{"cloudmirror/internal/wal"},
		Checked:   []string{"cloudmirror"},
		Allowed: []string{
			"cloudmirror/guarantee",
			"cloudmirror/cmd/bwd",
			"cloudmirror/internal/wal",
		},
		Gateways: guaranteeGateway,
		Hint:     "use guarantee.WithDurability",
	},
}

// BoundaryRules returns the apibound rule set (for tests and docs).
func BoundaryRules() []BoundaryRule {
	return boundaryRules
}

// underAny reports whether path equals one of the prefixes or is a
// subpackage of one.
func underAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
