package guarantee

import (
	"fmt"
	"sort"
	"strings"

	"cloudmirror/internal/pipe"
	"cloudmirror/internal/place"
	"cloudmirror/internal/place/cloudmirror"
	"cloudmirror/internal/place/oktopus"
	"cloudmirror/internal/place/secondnet"
	"cloudmirror/internal/tag"
	"cloudmirror/internal/topology"
	"cloudmirror/internal/voc"
)

// Algorithm couples a placement-algorithm constructor with the
// bandwidth model its tenants are priced under — the unit the registry
// hands out, and what the CLI -alg flags resolve to.
type Algorithm struct {
	// Name is the registry key ("cm", "ovoc", "secondnet", ...).
	Name string
	// NewPlacer builds the algorithm on a shard tree (one instance per
	// tree).
	NewPlacer func(*topology.Tree) place.Placer
	// ModelFor translates a tenant's TAG into the model used for
	// admission and reservation; nil prices tenants by the TAG itself.
	ModelFor func(*tag.Graph) place.Model
}

// algorithms is the registry behind AlgorithmByName, in one place so
// commands, examples, and the serving daemon share one -alg namespace.
var algorithms = map[string]Algorithm{
	"cm": {
		NewPlacer: func(t *topology.Tree) place.Placer { return cloudmirror.New(t) },
	},
	"cm-oppha": {
		NewPlacer: func(t *topology.Tree) place.Placer {
			return cloudmirror.New(t, cloudmirror.WithOpportunisticHA())
		},
	},
	"cm-coloc": {
		NewPlacer: func(t *topology.Tree) place.Placer {
			return cloudmirror.New(t, cloudmirror.WithoutBalance())
		},
	},
	"cm-balance": {
		NewPlacer: func(t *topology.Tree) place.Placer {
			return cloudmirror.New(t, cloudmirror.WithoutColocate())
		},
	},
	"ovoc": {
		NewPlacer: func(t *topology.Tree) place.Placer { return oktopus.New(t) },
		ModelFor:  func(g *tag.Graph) place.Model { return voc.FromTAG(g) },
	},
	"ovoc-aware": {
		NewPlacer: func(t *topology.Tree) place.Placer { return oktopus.New(t, oktopus.WithVOCAwareness()) },
		ModelFor:  func(g *tag.Graph) place.Model { return voc.FromTAG(g) },
	},
	"secondnet": {
		NewPlacer: func(t *topology.Tree) place.Placer { return secondnet.New(t) },
		ModelFor:  func(g *tag.Graph) place.Model { return pipe.FromTAG(g) },
	},
}

// Algorithms lists the registered algorithm names in a stable order.
func Algorithms() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AlgorithmByName resolves a registered algorithm. Unknown names fail
// with a typed InvalidRequest rejection listing the valid values.
func AlgorithmByName(name string) (Algorithm, error) {
	alg, ok := algorithms[name]
	if !ok {
		return Algorithm{}, place.Reject("configure", InvalidRequest,
			fmt.Errorf("unknown algorithm %q: valid values are %s", name, strings.Join(Algorithms(), ", ")))
	}
	alg.Name = name
	return alg, nil
}
