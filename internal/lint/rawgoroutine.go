package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

var hostConcurrencyPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

// NewRawGoroutine builds the rawgoroutine analyzer: sim-scheduled code may
// not spawn host goroutines, touch channels, or use sync primitives — all
// concurrency above the kernel is cooperative, expressed as sim.Proc
// coroutines the kernel dispatches one at a time in virtual-time order. A
// raw goroutine races the kernel's schedule and breaks seed replay; the
// one sanctioned use (the iter.Pull workers behind Kernel.dispatch and the
// mutex around their free list in internal/sim) is allowlisted via
// cfg.ConcurrencyAllow.
func NewRawGoroutine(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "rawgoroutine",
		Doc:  "forbid goroutines, channels, and sync primitives outside the sim kernel",
	}
	report := func(pass *Pass, pos token.Pos, what string) {
		pass.Reportf(pos,
			"%s in sim-scheduled code bypasses the kernel's deterministic schedule; use sim.Proc / Kernel.Spawn instead",
			what)
	}
	a.Run = func(pass *Pass) error {
		path := pass.Pkg.Path()
		if !pathInAny(path, cfg.SimDriven) || pathInAny(path, cfg.ConcurrencyAllow) {
			return nil
		}
		for _, file := range pass.Files {
			if !cfg.IncludeTests && testFile(pass.Fset, file.Pos()) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					report(pass, n.Pos(), "go statement")
				case *ast.SendStmt:
					report(pass, n.Pos(), "channel send")
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						report(pass, n.Pos(), "channel receive")
					}
				case *ast.SelectStmt:
					report(pass, n.Pos(), "select statement")
				case *ast.RangeStmt:
					if t := pass.Info.TypeOf(n.X); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							report(pass, n.Pos(), "range over channel")
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
						if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
							t := pass.Info.TypeOf(n.Args[0])
							if t == nil {
								return true
							}
							_, isChan := t.Underlying().(*types.Chan)
							if isChan && (b.Name() == "make" || b.Name() == "close") {
								report(pass, n.Pos(), b.Name()+" of channel")
							}
						}
					}
				case *ast.SelectorExpr:
					if x, ok := ast.Unparen(n.X).(*ast.Ident); ok {
						if pn, isPkg := pass.Info.Uses[x].(*types.PkgName); isPkg &&
							hostConcurrencyPkgs[pn.Imported().Path()] {
							report(pass, n.Pos(), pn.Imported().Path()+"."+n.Sel.Name)
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
