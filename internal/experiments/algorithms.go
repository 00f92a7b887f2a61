package experiments

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
// bandwidth model its tenants are priced under: CloudMirror and its
// ablations under the TAG, the §5 comparison baselines under the models
// they were designed for. The -alg flags of cmd/simulate and
// cmd/cloudmirror resolve to one of these.
type Algorithm struct {
	// NewPlacer builds the algorithm on one tree.
	NewPlacer func(*topology.Tree) place.Placer
	// ModelFor translates a tenant's TAG into the model used for
	// admission and reservation; nil prices tenants by the TAG itself.
	ModelFor func(*tag.Graph) place.Model
}

func vocModel(g *tag.Graph) place.Model { return voc.FromTAG(g) }

// cmVariant builds CloudMirror with the given options.
func cmVariant(opts ...cloudmirror.Option) func(*topology.Tree) place.Placer {
	return func(t *topology.Tree) place.Placer { return cloudmirror.New(t, opts...) }
}

// ovocVariant builds Oktopus with the given options, pricing by VOC.
func ovocVariant(opts ...oktopus.Option) Algorithm {
	return Algorithm{NewPlacer: func(t *topology.Tree) place.Placer { return oktopus.New(t, opts...) }, ModelFor: vocModel}
}

// algorithms is the -alg namespace: every variant the figures compare.
var algorithms = map[string]Algorithm{
	"cm":         {NewPlacer: cmVariant()},
	"cm-oppha":   {NewPlacer: cmVariant(cloudmirror.WithOpportunisticHA())},
	"cm-coloc":   {NewPlacer: cmVariant(cloudmirror.WithoutBalance())},
	"cm-balance": {NewPlacer: cmVariant(cloudmirror.WithoutColocate())},
	"ovoc":       ovocVariant(),
	"ovoc-aware": ovocVariant(oktopus.WithVOCAwareness()),
	"secondnet": {
		NewPlacer: func(t *topology.Tree) place.Placer { return secondnet.New(t) },
		ModelFor:  func(g *tag.Graph) place.Model { return pipe.FromTAG(g) },
	},
}

// Algorithms lists the algorithm names in a stable order.
func Algorithms() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AlgorithmByName resolves an algorithm. Unknown names fail with a
// typed InvalidRequest rejection listing the valid values.
func AlgorithmByName(name string) (Algorithm, error) {
	alg, ok := algorithms[name]
	if !ok {
		return Algorithm{}, place.Reject("configure", place.ReasonInvalidRequest,
			fmt.Errorf("unknown algorithm %q: valid values are %s", name, strings.Join(Algorithms(), ", ")))
	}
	return alg, nil
}

// PlaceOne places one tenant on an empty tree built from spec, priced
// under alg's model, through the admission path the guarantee service
// runs: the request is validated first, so a malformed one fails with
// the same typed rejection. It returns the tree the tenant reserved on.
func PlaceOne(spec topology.Spec, alg Algorithm, req place.Request) (*topology.Tree, *place.Reservation, error) {
	if alg.ModelFor != nil && req.Graph != nil {
		req.Model = alg.ModelFor(req.Graph)
	}
	tree := topology.New(spec)
	ad, _, err := place.NewAdmitter(tree, alg.NewPlacer(tree)).Place(&req)
	if err != nil {
		return nil, nil, err
	}
	return tree, ad.Reservation(), nil
}
