package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewMapOrder builds the maporder analyzer. Go randomizes map iteration
// order per range statement, so a `range` over a map whose body does
// anything order-visible — schedules a sim event, sends a frame, records
// trace/fingerprint state, or appends to a slice that outlives the loop —
// produces a different schedule on every run and breaks the seed-replay
// guarantee the chaos explorer's determinism double-run audits. The fix is
// always the same: collect the keys, sort them, and iterate the sorted
// slice. The one idiomatic map range the analyzer accepts is exactly that
// key-collection loop, provided the collected slice is sorted later in the
// same function.
func NewMapOrder(cfg *Config) *Analyzer {
	effectNames := make(map[string]bool, len(cfg.EffectNames))
	for _, n := range cfg.EffectNames {
		effectNames[n] = true
	}
	effectCalls := make(map[string]map[string]bool, len(cfg.EffectCalls))
	for pkg, names := range cfg.EffectCalls {
		m := make(map[string]bool, len(names))
		for _, n := range names {
			m[n] = true
		}
		effectCalls[pkg] = m
	}

	a := &Analyzer{
		Name: "maporder",
		Doc:  "flag map iteration whose body is order-visible without sorted keys",
	}
	a.Run = func(pass *Pass) error {
		if !pathInAny(pass.Pkg.Path(), cfg.SimDriven) {
			return nil
		}
		for _, file := range pass.Files {
			// The sorted-later search scopes to the enclosing top-level
			// function body (a sort after a closure's loop still counts).
			ast.Inspect(file, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok {
					return true
				}
				if fd.Body != nil {
					ast.Inspect(fd.Body, func(m ast.Node) bool {
						if rs, ok := m.(*ast.RangeStmt); ok {
							checkMapRange(pass, rs, fd.Body, effectNames, effectCalls)
						}
						return true
					})
				}
				return false
			})
		}
		return nil
	}
	return a
}

// mapEffect is one order-visible operation found in a map-range body.
type mapEffect struct {
	pos      token.Pos
	desc     string
	appendTo types.Object // non-nil when the effect is an append to an outer slice
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt,
	effectNames map[string]bool, effectCalls map[string]map[string]bool) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	var effects []mapEffect
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			f := funcFor(pass.Info, n.Fun)
			if f == nil {
				return true
			}
			if names, ok := effectCalls[funcPkgPath(f)]; ok && names[f.Name()] {
				effects = append(effects, mapEffect{n.Pos(), "call to " + funcPkgPath(f) + "." + f.Name(), nil})
			} else if effectNames[f.Name()] {
				effects = append(effects, mapEffect{n.Pos(), "call to " + f.Name(), nil})
			}
		case *ast.SendStmt:
			effects = append(effects, mapEffect{n.Pos(), "channel send", nil})
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(call.Fun).(*ast.Ident)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "append" {
					continue
				}
				target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Uses[target]
				if obj == nil || !declaredOutside(obj, rs) {
					continue
				}
				effects = append(effects, mapEffect{n.Pos(), "append to " + target.Name + " which outlives the loop", obj})
			}
		}
		return true
	})
	if len(effects) == 0 {
		return
	}
	// Key-collection exemption: every effect is an append to an outer
	// slice that is sorted later in the same function.
	allSorted := true
	for _, e := range effects {
		if e.appendTo == nil || !sortedAfter(pass, fnBody, e.appendTo, rs.End()) {
			allSorted = false
			break
		}
	}
	if allSorted {
		return
	}
	e := effects[0]
	pass.Reportf(rs.Pos(),
		"iteration over map %s is order-visible (%s) and map order is random per run; collect and sort the keys, then iterate the sorted slice",
		types.ExprString(rs.X), e.desc)
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement — an append target that outlives the loop body.
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// pos within the function body.
func sortedAfter(pass *Pass, fnBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		f := funcFor(pass.Info, call.Fun)
		if f == nil {
			return true
		}
		if p := funcPkgPath(f); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
