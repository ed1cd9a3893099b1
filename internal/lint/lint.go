// Package lint is pvmigrate's static determinism-and-protocol-hygiene
// checker suite. It proves, at compile time, the invariants that
// internal/chaos can only sample at run time: a deterministic virtual-time
// kernel is only deterministic if no sim-driven code reads the wall clock
// or iterates a map where order is observable — and the migration protocol
// is only audit-able if no protocol-path error is silently dropped. Each
// rule here is one whose violation can pass every test that runs the code
// (DESIGN.md §6c/§6d); a global RNG draw or a raw goroutine fails the
// golden digests and -race the first time a test reaches it, so those are
// left to the tests.
//
// The package mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// alone: the build environment is hermetic, so the framework the analyzers
// plug into lives here rather than in an external module. Analyzers are
// constructed from a Config (package allowlists, effect-call tables) —
// policy lives in config, never in magic comments, with the single
// exception of the `// lint:reason` justification that droppederr accepts
// for a deliberate discard.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package, in the image of
// golang.org/x/tools/go/analysis.Analyzer. Exactly one of Run (per-package,
// syntactic/type-aware) and RunProgram (whole-program, callgraph-aware) is
// set: the interprocedural analyzers need every loaded package at once to
// resolve calls across package boundaries.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) error
	RunProgram func(*ProgramPass) error
}

// Pass carries one package's parsed-and-type-checked state through one
// analyzer, and collects the diagnostics it reports.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

// Reportf records a finding against the pass's package.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole loaded program through one program-level
// analyzer, and collects the diagnostics it reports.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Position: p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// RunAnalyzers applies each per-package analyzer to pkg and returns the
// combined diagnostics sorted by file position. Program-level analyzers are
// skipped; use RunAll for the full suite.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diags...)
	}
	sortDiags(out)
	return out, nil
}

// RunAll applies the whole suite — per-package and program-level analyzers
// alike — to every package of prog and returns the combined diagnostics
// sorted by file position.
func RunAll(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range prog.Pkgs {
				diags, err := RunAnalyzers(pkg, []*Analyzer{a})
				if err != nil {
					return nil, err
				}
				out = append(out, diags...)
			}
		case a.RunProgram != nil:
			pass := &ProgramPass{Analyzer: a, Prog: prog}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sortDiags(out)
	return out, nil
}

// All returns the full suite, built from cfg: the three per-package
// determinism/hygiene passes and the four program-level passes
// (noalloc, bridgecall, errcode, fielduse).
func All(cfg *Config) []*Analyzer {
	return []*Analyzer{
		NewNoWallClock(cfg),
		NewMapOrder(cfg),
		NewDroppedErr(cfg),
		NewNoAlloc(cfg),
		NewBridgeCall(cfg),
		NewErrCode(cfg),
		NewFieldUse(cfg),
	}
}

// --- shared helpers ----------------------------------------------------------

// pathMatches reports whether an import path equals prefix or sits below it
// ("a/b" matches "a/b" and "a/b/c", never "a/bc").
func pathMatches(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func pathInAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if pathMatches(path, p) {
			return true
		}
	}
	return false
}

// funcFor resolves the called function object behind a call expression's
// Fun, unwrapping parens; nil for builtins, conversions and func-typed
// values the checker cannot name.
func funcFor(info *types.Info, fun ast.Expr) *types.Func {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins/universe scope).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isPkgLevel reports whether f is a package-level function (no receiver).
func isPkgLevel(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// returnsError reports whether the function's results include an error.
func returnsError(f *types.Func) (pos int, ok bool) {
	sig, isSig := f.Type().(*types.Signature)
	if !isSig {
		return 0, false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, isNamed := types.Unalias(res.At(i).Type()).(*types.Named); isNamed &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return i, true
		}
	}
	return 0, false
}

// directiveComment reports whether c is a lint directive of the given name
// (`// lint:reason …`, `// lint:alloc …`): the comment's text must begin
// with the directive, so prose that merely mentions one is not a directive.
func directiveComment(c *ast.Comment, name string) bool {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	return strings.HasPrefix(text, name)
}
