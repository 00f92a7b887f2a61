package lint

import (
	"go/ast"
	"sort"
	"strconv"
	"strings"

	"cloudmirror/internal/lint/analysis"
)

// APIBoundAnalyzer enforces the public-API boundary rules on the real
// import graph and the type checker's resolved references. Each
// BoundaryRule in
// boundaryRules is checked three ways:
//
//   - direct imports of a forbidden package, regardless of alias;
//   - references to banned objects of an otherwise-importable package
//     (rule place-admission) — resolved through go/types, so aliased
//     and dot imports that defeat a textual `place\.Admitter` grep are
//     still caught;
//   - transitive imports: a checked package reaching a forbidden
//     package through intermediaries that are not declared Gateways —
//     the laundering-helper shape grep over cmd/ and examples/ cannot
//     see at all.
//
// Adding a boundary is one entry in boundaryRules (config.go). There
// is deliberately no suppression directive: the boundary is absolute,
// and sanctioned wrappers are declared as rule data, not annotated at
// use sites.
var APIBoundAnalyzer = &analysis.Analyzer{
	Name: "apibound",
	Doc:  "enforce the guarantee public-API boundary on the real import graph",
	Run:  runAPIBound,
}

func runAPIBound(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	specs := importSpecs(pass)
	for i := range boundaryRules {
		rule := &boundaryRules[i]
		if !underAny(path, rule.Checked) || underAny(path, rule.Allowed) {
			continue
		}
		checkDirect(pass, rule, specs)
		checkObjects(pass, rule)
		checkTransitive(pass, rule, specs)
	}
	return nil, nil
}

// importSpecs collects the package's import specs keyed by path.
func importSpecs(pass *analysis.Pass) map[string]*ast.ImportSpec {
	specs := map[string]*ast.ImportSpec{}
	for _, f := range pass.Files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err == nil {
				specs[p] = spec
			}
		}
	}
	return specs
}

// checkDirect reports direct imports of a forbidden package.
func checkDirect(pass *analysis.Pass, rule *BoundaryRule, specs map[string]*ast.ImportSpec) {
	for _, forbidden := range rule.Forbidden {
		if spec, ok := specs[forbidden]; ok {
			pass.Reportf(spec.Pos(),
				"import of %s breaches the %s boundary: %s",
				forbidden, rule.Name, rule.Hint)
		}
	}
}

// checkObjects reports references to banned objects, however the
// defining package was imported.
func checkObjects(pass *analysis.Pass, rule *BoundaryRule) {
	if len(rule.Objects) == 0 {
		return
	}
	for id, obj := range pass.TypesInfo.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		banned := rule.Objects[pkg.Path()]
		if len(banned) == 0 || obj.Parent() != pkg.Scope() {
			continue
		}
		for _, name := range banned {
			if obj.Name() == name {
				pass.Reportf(id.Pos(),
					"reference to %s.%s breaches the %s boundary: %s",
					pkg.Path(), name, rule.Name, rule.Hint)
				break
			}
		}
	}
}

// checkTransitive walks the module import graph from the checked
// package, stopping at declared gateways and allowed packages, and
// reports any path that reaches a forbidden package. Requires the
// full-module graph the standalone driver supplies; under the
// unitchecker (one compilation unit at a time) it degrades to the
// direct checks above.
func checkTransitive(pass *analysis.Pass, rule *BoundaryRule, specs map[string]*ast.ImportSpec) {
	if pass.ModuleImports == nil || len(rule.Forbidden) == 0 {
		return
	}
	if _, ok := pass.ModuleImports(pass.Pkg.Path()); !ok {
		return
	}
	forbidden := map[string]bool{}
	for _, f := range rule.Forbidden {
		forbidden[f] = true
	}
	blocked := func(p string) bool {
		return underAny(p, rule.Gateways) || underAny(p, rule.Allowed)
	}
	for _, imp := range sortedImportPaths(specs) {
		if forbidden[imp] || blocked(imp) {
			continue // direct breaches reported by checkDirect
		}
		if chain := findPath(pass, imp, forbidden, blocked); chain != nil {
			spec := specs[imp]
			pass.Reportf(spec.Pos(),
				"import of %s reaches %s (via %s) breaching the %s boundary: %s",
				imp, chain[len(chain)-1], strings.Join(chain, " -> "), rule.Name, rule.Hint)
		}
	}
}

// sortedImportPaths returns the spec keys in deterministic order.
func sortedImportPaths(specs map[string]*ast.ImportSpec) []string {
	paths := make([]string, 0, len(specs))
	for p := range specs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// findPath runs a BFS from start over the module import graph, not
// descending into blocked packages, and returns the shortest chain
// (start ... forbidden) if one exists.
func findPath(pass *analysis.Pass, start string, forbidden map[string]bool, blocked func(string) bool) []string {
	type node struct {
		path string
		prev *node
	}
	visited := map[string]bool{start: true}
	queue := []*node{{path: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if forbidden[cur.path] {
			var chain []string
			for n := cur; n != nil; n = n.prev {
				chain = append([]string{n.path}, chain...)
			}
			return chain
		}
		deps, ok := pass.ModuleImports(cur.path)
		if !ok {
			continue
		}
		for _, d := range deps {
			if visited[d] || blocked(d) {
				continue
			}
			visited[d] = true
			queue = append(queue, &node{path: d, prev: cur})
		}
	}
	return nil
}
