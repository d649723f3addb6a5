// Package load turns `go list` package patterns into type-checked
// syntax trees using only the standard library.
//
// Load resolves patterns into a Graph: the target units plus every
// in-module dependency, in dependency order, for politevet's driver in
// internal/lint. The loader shells out to the go command for package
// metadata and compiled export data, and type-checks only in-module
// sources, importing everything else from export data.
package load

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package unit ready for analysis. When
// the package has in-package test files the unit is the test variant
// ("pkg [pkg.test]"), whose file list supersets the plain package —
// mirroring what `go vet` analyzes.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// TypeErrors holds soft type-checking errors. Analysis proceeds
	// despite them, but drivers should surface them: an analyzer
	// cannot vouch for code it could not fully resolve.
	TypeErrors []error
}

// Unit is the raw material for one Package: source files plus the
// export-data locations of every import.
type Unit struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
}

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// isTarget reports whether p is a unit the caller asked for, as
// opposed to a dependency pulled in by -deps. The generated
// "pkg.test" main is never a target.
func isTarget(p *listPackage, targets map[string]bool) bool {
	if strings.HasSuffix(p.ImportPath, ".test") && p.Name == "main" {
		return false
	}
	if targets[p.ImportPath] {
		return true
	}
	return p.ForTest != "" && targets[p.ForTest]
}

// expand resolves patterns to the set of matched import paths.
func expand(dir string, patterns []string) (map[string]bool, error) {
	args := append([]string{"list", "-e", "--"}, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			targets[line] = true
		}
	}
	return targets, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}

// check parses and type-checks one unit. Imports resolve through the
// unit's ImportMap to compiled export data in PackageFile; the gc
// export format is self-contained, so transitive dependencies need no
// entries of their own.
func check(u Unit) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range u.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(u.Dir, name)
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := u.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := u.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}

	pkg := &Package{ImportPath: u.ImportPath, Fset: fset, Files: files}
	conf := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(u.ImportPath, fset, files, info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}
