// Package driver loads type-checked packages for the cloudlint
// analyzers and runs them, using only the standard library and the go
// command.
//
// Load runs `go list -deps -export` over the requested patterns, parses
// the module's own packages from source, and type-checks them against
// the compiler's export data for every dependency — so the whole module
// (plus its full import graph) is visible in one run.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// ListPackage is the subset of `go list -json` output the driver needs.
type ListPackage struct {
	// ImportPath is the package's import path.
	ImportPath string
	// Dir is the directory holding the package's sources.
	Dir string
	// Export is the file containing the package's export data,
	// produced by `go list -export`.
	Export string
	// Standard marks packages in the standard library.
	Standard bool
	// GoFiles lists the package's non-test Go sources (no cgo).
	GoFiles []string
	// Imports lists the package's direct imports.
	Imports []string
	// Module identifies the containing module, nil for GOROOT packages.
	Module *ListModule
}

// ListModule is the module stanza of `go list -json` output.
type ListModule struct {
	// Path is the module path.
	Path string
}

// Index holds the package metadata for one `go list -deps -export` run:
// every listed package (the requested patterns plus their transitive
// dependencies) keyed by import path.
type Index struct {
	// Pkgs maps import path to package metadata.
	Pkgs map[string]*ListPackage
	// Roots lists the import paths matched by the patterns themselves,
	// in `go list` order.
	Roots []string
	// ModulePath is the main module's path ("cloudmirror").
	ModulePath string
}

// ListIndex runs `go list -deps -export -json` in dir over patterns and
// returns the resulting package index. CGO is disabled so the standard
// library resolves to its pure-Go form and every package can be parsed
// from GoFiles alone.
func ListIndex(dir string, patterns ...string) (*Index, error) {
	args := []string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Imports,Module",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	ix := &Index{Pkgs: map[string]*ListPackage{}}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(ListPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		ix.Pkgs[p.ImportPath] = p
	}
	// -deps lists dependencies before dependents, so the roots are the
	// suffix of the stream; recover them with a plain list call.
	roots, err := listRoots(dir, patterns)
	if err != nil {
		return nil, err
	}
	ix.Roots = roots
	for _, p := range ix.Pkgs {
		if p.Module != nil && !p.Standard {
			ix.ModulePath = p.Module.Path
			break
		}
	}
	return ix, nil
}

// listRoots resolves patterns to the import paths they match.
func listRoots(dir string, patterns []string) ([]string, error) {
	args := append([]string{"list"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var roots []string
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		if len(line) > 0 {
			roots = append(roots, string(line))
		}
	}
	return roots, nil
}
