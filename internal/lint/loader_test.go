package lint_test

import (
	"go/types"
	"path/filepath"
	"slices"
	"testing"

	"pvmigrate/internal/lint"
)

// TestLoaderSkipsRecorded loads a directory seeded with one file of every
// skippable kind — a build-tag-excluded file, a test file, a file the go
// tool ignores — beside ordinary and generated code, and checks exactly the
// last two are loaded.
func TestLoaderSkipsRecorded(t *testing.T) {
	l := lint.NewLoader()
	pkg, err := l.LoadDir(filepath.Join("testdata", "loader", "skipdir"), "pvmigrate/internal/lintfixture/skipdir")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	var loaded []string
	for _, f := range pkg.Files {
		loaded = append(loaded, filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
	}
	if want := []string{"gen.go", "keep.go"}; !slices.Equal(loaded, want) {
		t.Errorf("loaded %v, want %v", loaded, want)
	}
}

// TestLoaderTypeChecksSyscallImport proves the hermetic source importer
// resolves syscall — a package that needs no cgo but trips importers that
// expect export data — so analysis packages touching raw host I/O load.
func TestLoaderTypeChecksSyscallImport(t *testing.T) {
	l := lint.NewLoader()
	pkg, err := l.LoadDir(filepath.Join("testdata", "loader", "sys"), "pvmigrate/internal/lintfixture/sys")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	obj := pkg.Types.Scope().Lookup("BadArg")
	if obj == nil {
		t.Fatal("BadArg not in package scope")
	}
	if got := obj.Type().String(); got != "syscall.Errno" {
		t.Errorf("BadArg type = %s, want syscall.Errno", got)
	}
}

// TestLoaderPreservesTypeIdentity loads two fixture packages where b
// imports a under an import path that has no directory in the module tree:
// the import can only resolve through the loader's cache of already-loaded
// analysis packages. It then checks the identity the interprocedural
// analyzers depend on — b's Impl satisfies a's Wire only if both sides
// hold the *same* Token type.
func TestLoaderPreservesTypeIdentity(t *testing.T) {
	l := lint.NewLoader()
	a, err := l.LoadDir(filepath.Join("testdata", "loader", "a"), "pvmigrate/internal/lintfixture/a")
	if err != nil {
		t.Fatalf("LoadDir a: %v", err)
	}
	b, err := l.LoadDir(filepath.Join("testdata", "loader", "b"), "pvmigrate/internal/lintfixture/b")
	if err != nil {
		t.Fatalf("LoadDir b (imports a through the loader cache): %v", err)
	}

	served := false
	for _, imp := range b.Types.Imports() {
		if imp.Path() == a.Path {
			served = imp == a.Types
		}
	}
	if !served {
		t.Error("b's import of a is not the cached *types.Package instance")
	}

	wire, ok := a.Types.Scope().Lookup("Wire").Type().Underlying().(*types.Interface)
	if !ok {
		t.Fatal("afix.Wire is not an interface")
	}
	impl := b.Types.Scope().Lookup("Impl")
	if impl == nil {
		t.Fatal("bfix.Impl not found")
	}
	if !types.Implements(impl.Type(), wire) {
		t.Error("bfix.Impl does not implement afix.Wire across the loader cache — cross-package type identity is broken")
	}
}

// TestLoaderPatternsRealPackages runs the regression that motivated the
// loader-as-importer design on the real tree: netwire loaded after netsim
// must see the same netsim types the analyzers hold, so *netwire.Backend
// implements netsim.Wire.
func TestLoaderPatternsRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads real packages from source")
	}
	l := lint.NewLoader()
	pkgs, err := l.LoadPatterns([]string{"pvmigrate/internal/netsim", "pvmigrate/internal/netwire"})
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	byPath := make(map[string]*lint.Package)
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	netsim, netwire := byPath["pvmigrate/internal/netsim"], byPath["pvmigrate/internal/netwire"]
	if netsim == nil || netwire == nil {
		t.Fatalf("patterns loaded %d packages, missing netsim or netwire", len(pkgs))
	}
	wire, ok := netsim.Types.Scope().Lookup("Wire").Type().Underlying().(*types.Interface)
	if !ok {
		t.Fatal("netsim.Wire is not an interface")
	}
	backend := netwire.Types.Scope().Lookup("Backend")
	if backend == nil {
		t.Fatal("netwire.Backend not found")
	}
	if !types.Implements(types.NewPointer(backend.Type()), wire) {
		t.Error("*netwire.Backend does not implement netsim.Wire under the shared loader — dependency-order identity regressed")
	}
}
