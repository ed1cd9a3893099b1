package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NewDroppedErr builds the droppederr analyzer: on the protocol message
// paths (Send/Dial/Transfer and checkpoint I/O — the functions named in
// cfg.ProtocolFuncs), an ignored error is a protocol hole. The frame was
// never delivered, the snapshot was never durable, but the caller's state
// machine advances as if it were — a divergence the chaos sweep can only
// find if a seed happens to hit it. Errors must be handled or propagated;
// a deliberate discard must be written as `_ = call // lint:reason <why>`
// so the justification is auditable at the site.
func NewDroppedErr(cfg *Config) *Analyzer {
	protocol := make(map[string]map[string]bool, len(cfg.ProtocolFuncs))
	for pkg, names := range cfg.ProtocolFuncs {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		protocol[pkg] = m
	}

	a := &Analyzer{
		Name: "droppederr",
		Doc:  "flag discarded errors on protocol message and checkpoint I/O paths",
	}

	protoCall := func(pass *Pass, e ast.Expr) (*types.Func, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return nil, false
		}
		f := funcFor(pass.Info, call.Fun)
		if f == nil {
			return nil, false
		}
		if names, ok := protocol[funcPkgPath(f)]; !ok || !names[f.Name()] {
			return nil, false
		}
		if _, hasErr := returnsError(f); !hasErr {
			return nil, false
		}
		return f, true
	}

	a.Run = func(pass *Pass) error {
		if !pathInAny(pass.Pkg.Path(), cfg.SimDriven) {
			return nil
		}
		for _, file := range pass.Files {
			reasons := reasonLines(pass.Fset, file)
			suppress := func(line int) bool {
				if r := reasons[line]; r != nil {
					r.used = true
					return true
				}
				if r := reasons[line-1]; r != nil {
					r.used = true
					return true
				}
				return false
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if f, ok := protoCall(pass, n.X); ok {
						pass.Reportf(n.Pos(),
							"error from %s.%s dropped on a protocol path; handle it, or discard explicitly with `_ = … // lint:reason <why>`",
							funcPkgPath(f), f.Name())
					}
				case *ast.DeferStmt:
					if f, ok := protoCall(pass, n.Call); ok {
						pass.Reportf(n.Pos(),
							"deferred %s.%s discards its error on a protocol path; wrap it in a closure that handles the error",
							funcPkgPath(f), f.Name())
					}
				case *ast.AssignStmt:
					if len(n.Rhs) != 1 {
						return true
					}
					f, ok := protoCall(pass, n.Rhs[0])
					if !ok {
						return true
					}
					errPos, _ := returnsError(f)
					if len(n.Lhs) <= errPos {
						return true
					}
					id, isIdent := n.Lhs[errPos].(*ast.Ident)
					if !isIdent || id.Name != "_" {
						return true
					}
					line := pass.Fset.Position(n.Pos()).Line
					if suppress(line) {
						return true
					}
					pass.Reportf(n.Pos(),
						"error from %s.%s discarded without justification; handle it or add `// lint:reason <why>` on this line",
						funcPkgPath(f), f.Name())
				}
				return true
			})
			// An audit that audits nothing is a lie waiting to mislead the
			// next reader: once the discard it justified is gone (or was
			// never a protocol discard), the directive must go too.
			var stale []int
			for line, r := range reasons {
				if !r.used {
					stale = append(stale, line)
				}
			}
			sort.Ints(stale)
			for _, line := range stale {
				pass.Reportf(reasons[line].pos,
					"stale lint:reason directive: it justifies no discarded protocol error; delete it or move it to the discard it audits")
			}
		}
		return nil
	}
	return a
}

// reason is one `// lint:reason` directive and whether it suppressed a
// finding.
type reason struct {
	pos  token.Pos
	used bool
}

// reasonLines collects the lines carrying a `// lint:reason` comment; a
// justified discard has the comment on its own line or the line above.
func reasonLines(fset *token.FileSet, file *ast.File) map[int]*reason {
	lines := make(map[int]*reason)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if directiveComment(c, "lint:reason") {
				lines[fset.Position(c.Pos()).Line] = &reason{pos: c.Pos()}
			}
		}
	}
	return lines
}
