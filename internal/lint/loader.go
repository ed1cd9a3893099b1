package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages for analysis. Dependencies —
// standard library and module-local alike — are type-checked from source
// via go/importer's "source" compiler, so the loader needs no pre-built
// export data and no network: everything resolves inside GOROOT and the
// module tree.
//
// The loader is itself the types.Importer its checks run under: a package
// already loaded for analysis is served from the cache, so when netwire is
// checked after netsim, netwire's view of netsim.HostID is the *same*
// types.Object the analyzers hold. Without that identity, every
// cross-package fact the interprocedural analyzers rely on silently fails —
// types.Implements says netwire.Backend does not satisfy netsim.Wire, and
// a static call from cmd/ into serve resolves to a *types.Func the
// callgraph has never seen. LoadPatterns loads in dependency order so the
// cache is warm before a dependent is checked.
type Loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom

	// loaded caches every analysis package by import path; ImportFrom
	// serves these before falling back to the source importer.
	loaded map[string]*Package
}

// NewLoader returns a loader with a shared file set and import cache; load
// every package of one run through the same loader so dependencies are
// type-checked once.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	imp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		panic("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{fset: fset, imp: imp, loaded: make(map[string]*Package)}
}

// Fork returns a loader sharing this loader's file set and source-importer
// cache — so the standard library and real module packages are still
// type-checked only once per process — but with an empty analysis-package
// cache. Fixture harnesses need this: a fixture loaded under an
// allowlisted real import path (to test path-scoped rules) would otherwise
// be served, via ImportFrom, to every later fixture importing the real
// package of that name.
func (l *Loader) Fork() *Loader {
	return &Loader{fset: l.fset, imp: l.imp, loaded: make(map[string]*Package)}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: analysis packages already
// loaded through this loader are returned directly (preserving type
// identity between the importing check and the analyzers); everything else
// is type-checked from source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p.Types, nil
	}
	return l.imp.ImportFrom(path, dir, mode)
}

// LoadFiles parses the named files as one package rooted at dir and
// type-checks it under the given import path.
func (l *Loader) LoadFiles(dir, importPath string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.loaded[importPath] = pkg
	return pkg, nil
}

// LoadDir loads dir as one package: every .go file the default build
// context would compile. Test files, files the go tool ignores (leading
// . or _) and files excluded by build constraints are left out.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", filepath.Join(dir, name), err)
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return l.LoadFiles(dir, importPath, names)
}

// listedPackage is the slice of `go list -json` output the loader needs.
// Imports orders the load so dependencies are cached before their
// dependents are type-checked.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
}

// ListPatterns expands package patterns (./..., specific import paths) to
// concrete packages using the go command, which works offline against the
// module tree.
func ListPatterns(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Imports"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// dependencyOrder sorts the listed packages so every package follows the
// packages it imports (within the listed set). Go forbids import cycles,
// so the DFS terminates; ties keep go list's deterministic order.
func dependencyOrder(listed []listedPackage) []listedPackage {
	byPath := make(map[string]*listedPackage, len(listed))
	for i := range listed {
		byPath[listed[i].ImportPath] = &listed[i]
	}
	seen := make(map[string]bool, len(listed))
	out := make([]listedPackage, 0, len(listed))
	var visit func(lp *listedPackage)
	visit = func(lp *listedPackage) {
		if seen[lp.ImportPath] {
			return
		}
		seen[lp.ImportPath] = true
		for _, imp := range lp.Imports {
			if dep := byPath[imp]; dep != nil {
				visit(dep)
			}
		}
		out = append(out, *lp)
	}
	for i := range listed {
		visit(&listed[i])
	}
	return out
}

// LoadPatterns loads every package matching the patterns: the GoFiles of
// its non-test build. Packages load in dependency order so each one's
// imports resolve to already-loaded analysis packages (see
// Loader.ImportFrom).
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	listed, err := ListPatterns(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range dependencyOrder(listed) {
		p, err := l.LoadFiles(lp.Dir, lp.ImportPath, lp.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
