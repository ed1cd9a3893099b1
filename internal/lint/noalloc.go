package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
)

// wirefmtPath is the wire-format package: noalloc roots the enc argument of
// every wirefmt.Register call.
const wirefmtPath = "pvmigrate/internal/wirefmt"

// allocDeny lists standard-library packages whose calls allocate; the inner
// set names the exceptions that do not. Calls into the analyzed program are
// not listed here — their bodies are in the hot set and checked directly.
var allocDeny = map[string]map[string]bool{
	"fmt":           nil,
	"errors":        nil,
	"sort":          nil,
	"encoding/json": nil,
	"iter":          nil,
	"strconv": {
		"Atoi": true, "ParseInt": true, "ParseUint": true,
		"ParseFloat": true, "ParseBool": true,
	},
	"strings": {
		"EqualFold": true, "HasPrefix": true, "HasSuffix": true,
		"Contains": true, "Index": true, "IndexByte": true,
		"LastIndex": true, "Compare": true, "Count": true,
	},
	"bytes": {
		"Equal": true, "Compare": true, "HasPrefix": true,
		"HasSuffix": true, "Contains": true, "Index": true,
		"IndexByte": true,
	},
	"reflect": {"TypeOf": true},
	// netwire's pair calls, which TestSocketCallsAllocateNothing
	// (internal/netwire) holds at zero allocations. Anything returning a
	// Sockaddr or a slice (Getsockname, Recvfrom, …) allocates.
	"syscall": {
		"Read": true, "Write": true, "Close": true,
		"Socketpair": true, "CloseOnExec": true, "SetNonblock": true,
		"SetsockoptInt": true, "GetsockoptInt": true,
	},
}

// NewNoAlloc builds the noalloc analyzer: every function statically
// reachable from the registered hot entry points (cfg.AllocHot — the kernel
// schedule/dispatch path, the wirefmt encode path and scalar readers, the
// netwire send path — plus every encoder registered with wirefmt.Register)
// must contain no allocating construct. This is the compile-time face of
// the allocs/op == 0 assertions in BenchmarkKernelScheduleDispatch,
// TestAppendZeroAlloc and TestBinaryEncodeZeroAlloc: the benchmarks prove
// the property for the workloads they run, the analyzer proves it for every
// path, with file:line diagnostics instead of a counter.
//
// Reachability follows static calls and interface dispatch; spawned
// goroutines are excluded (their work is off the caller's synchronous
// path, which is what the gates measure). An audited exception is written
// `// lint:alloc <reason>` on the finding's line or the line above; a
// directive that suppresses nothing is itself a finding, so audits cannot
// outlive the code they justified.
func NewNoAlloc(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "noalloc",
		Doc:  "forbid allocating constructs in functions reachable from the zero-alloc hot paths",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		g := pass.Prog.CallGraph()

		// Roots: configured entry points, then every registered encoder.
		hot := make(map[*FuncInfo]string)
		var frontier []*FuncInfo
		root := func(fi *FuncInfo, why string) {
			if fi == nil || hot[fi] != "" {
				return
			}
			hot[fi] = why
			frontier = append(frontier, fi)
		}
		reportUnresolved(pass, g, "AllocHot", cfg.AllocHot)
		for pkgPath, keys := range cfg.AllocHot {
			for _, key := range keys {
				root(g.Lookup(pkgPath, key), path.Base(pkgPath)+"."+key)
			}
		}
		for _, fi := range g.Funcs() {
			for _, s := range fi.Sites {
				if s.CalleeFn == nil || s.CalleeFn.Name() != "Register" ||
					funcPkgPath(s.CalleeFn) != wirefmtPath || len(s.Call.Args) < 5 {
					continue
				}
				if enc := funcFor(fi.Pkg.Info, s.Call.Args[3]); enc != nil {
					root(g.FuncInfo(enc), "wirefmt.Register encoder "+enc.Name())
				}
			}
		}

		// Closure over synchronous edges. Exempt packages (cfg.AllocExempt —
		// structured-error construction) are not entered: an errs.Newf only
		// runs once the frame is already invalid, off the steady-state path
		// the zero-alloc gates measure.
		for len(frontier) > 0 {
			fi := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, s := range fi.Sites {
				if s.ViaGo {
					continue
				}
				for _, callee := range s.Callees {
					if pathInAny(callee.Pkg.Path, cfg.AllocExempt) {
						continue
					}
					root(callee, hot[fi])
				}
			}
		}

		// Audited exceptions, tracked so stale ones surface.
		type directive struct {
			pos  token.Pos
			used bool
		}
		directives := make(map[string]map[int]*directive)
		for _, pkg := range pass.Prog.Pkgs {
			for _, file := range pkg.Files {
				for _, cg := range file.Comments {
					for _, c := range cg.List {
						if !directiveComment(c, "lint:alloc") {
							continue
						}
						p := pkg.Fset.Position(c.Pos())
						if directives[p.Filename] == nil {
							directives[p.Filename] = make(map[int]*directive)
						}
						directives[p.Filename][p.Line] = &directive{pos: c.Pos()}
					}
				}
			}
		}

		report := func(pos token.Pos, format string, args ...any) {
			p := pass.Prog.Fset.Position(pos)
			if lines := directives[p.Filename]; lines != nil {
				if d := lines[p.Line]; d != nil {
					d.used = true
					return
				}
				if d := lines[p.Line-1]; d != nil {
					d.used = true
					return
				}
			}
			pass.Reportf(pos, format, args...)
		}

		// Deterministic order: Funcs() is position-sorted.
		for _, fi := range g.Funcs() {
			why, isHot := hot[fi]
			if !isHot {
				continue
			}
			checkAllocs(fi, why, cfg.AllocExempt, report)
		}

		// Stale audits, in deterministic order.
		var staleFiles []string
		for f := range directives {
			staleFiles = append(staleFiles, f)
		}
		sort.Strings(staleFiles)
		for _, f := range staleFiles {
			var lines []int
			for l, d := range directives[f] {
				if !d.used {
					lines = append(lines, l)
				}
			}
			sort.Ints(lines)
			for _, l := range lines {
				pass.Reportf(directives[f][l].pos,
					"stale lint:alloc directive: it suppresses no noalloc finding; delete it or move it to the allocation it audits")
			}
		}
		return nil
	}
	return a
}

// checkAllocs walks one hot function's body reporting every allocating
// construct.
func checkAllocs(fi *FuncInfo, why string, exempt []string, report func(token.Pos, string, ...any)) {
	info := fi.Pkg.Info
	name := fi.Key()
	diag := func(pos token.Pos, what string) {
		report(pos, "%s is on a zero-alloc hot path (reachable from %s) but %s; restructure, or audit with `// lint:alloc <reason>`",
			name, why, what)
	}

	// Sanctioned appends: `x = append(x, …)` / `x = append(x[:0], …)` and
	// the append-style API form `return append(x, …)` reuse x's backing
	// array in the steady state (growth is amortized and measured as zero
	// by the gates once warm; the caller of an append-style function
	// retains the result as its next buffer). Everything else gets a fresh
	// backing array on every call.
	sanctioned := make(map[*ast.CallExpr]bool)
	appendBase := func(call *ast.CallExpr) ast.Expr {
		if !isBuiltin(info, call.Fun, "append") || len(call.Args) == 0 {
			return nil
		}
		base := call.Args[0]
		if sl, ok := base.(*ast.SliceExpr); ok {
			base = sl.X
		}
		return base
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 || n.Tok != token.ASSIGN {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if base := appendBase(call); base != nil && sameSimpleExpr(n.Lhs[0], base) {
				sanctioned[call] = true
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				if base := appendBase(call); base != nil && isSimpleExpr(base) {
					sanctioned[call] = true
				}
			}
		}
		return true
	})

	skipLit := make(map[*ast.CompositeLit]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			diag(n.Pos(), "declares a closure, which may escape and allocates its captures")
			return false
		case *ast.GoStmt:
			diag(n.Pos(), "spawns a goroutine, which allocates its stack")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					skipLit[lit] = true
					diag(n.Pos(), "takes the address of a composite literal, which heap-allocates it")
				}
			}
		case *ast.CompositeLit:
			if skipLit[n] {
				return true
			}
			if t, ok := info.Types[n]; ok && t.Type != nil {
				switch t.Type.Underlying().(type) {
				case *types.Slice:
					diag(n.Pos(), "builds a slice literal, which allocates its backing array")
				case *types.Map:
					diag(n.Pos(), "builds a map literal, which allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n) && !isConst(info, n) {
				diag(n.Pos(), "concatenates strings, which allocates the result")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				diag(n.Pos(), "concatenates strings, which allocates the result")
			}
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				lhsType := func(i int) types.Type {
					if n.Tok == token.ASSIGN {
						if t, ok := info.Types[n.Lhs[i]]; ok {
							return t.Type
						}
					} else if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							return obj.Type()
						}
					}
					return nil
				}
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if boxes(info, rhs, lhsType(i)) {
							diag(rhs.Pos(), "converts a value to an interface, which heap-allocates the value")
						}
					}
				} else if tuple, ok := info.TypeOf(n.Rhs[0]).(*types.Tuple); ok && tuple.Len() == len(n.Lhs) {
					// `v, err = f()`: each of f's results is assigned to
					// the left-hand side in the same position.
					for i := 0; i < tuple.Len(); i++ {
						if boxesType(tuple.At(i).Type(), lhsType(i)) {
							diag(n.Rhs[0].Pos(), "converts an assigned call result to an interface, which heap-allocates it")
						}
					}
				}
			}
		case *ast.ReturnStmt:
			sig, ok := fi.Fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			results := sig.Results()
			if len(n.Results) == 1 && results.Len() > 1 {
				// `return f()`: each of f's results becomes the enclosing
				// function's result in the same position.
				call := n.Results[0]
				if tuple, ok := info.TypeOf(call).(*types.Tuple); ok && tuple.Len() == results.Len() {
					for i := 0; i < tuple.Len(); i++ {
						if boxesType(tuple.At(i).Type(), results.At(i).Type()) {
							diag(call.Pos(), "converts a returned call result to an interface, which heap-allocates it")
						}
					}
				}
				return true
			}
			if results.Len() != len(n.Results) {
				return true
			}
			for i, res := range n.Results {
				if boxes(info, res, results.At(i).Type()) {
					diag(res.Pos(), "converts a return value to an interface, which heap-allocates it")
				}
			}
		case *ast.CallExpr:
			checkCallAlloc(info, n, sanctioned, exempt, diag)
		}
		return true
	})
}

func checkCallAlloc(info *types.Info, call *ast.CallExpr, sanctioned map[*ast.CallExpr]bool, exempt []string, diag func(token.Pos, string)) {
	// Builtins. (A conversion through a predeclared type name, such as
	// string(b), is a universe identifier too, and falls through.)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := info.Uses[id].(*types.Builtin); ok && obj.Parent() == types.Universe {
			switch id.Name {
			case "make":
				diag(call.Pos(), "calls make, which allocates")
			case "new":
				diag(call.Pos(), "calls new, which allocates")
			case "append":
				if !sanctioned[call] {
					diag(call.Pos(), "appends into a slice it neither reassigns in place nor returns (`x = append(x, …)` and `return append(x, …)` reuse capacity; this form cannot)")
				}
			}
			return
		}
	}
	// Calls into an exempt package (structured-error construction): the
	// call only runs on a failure path, so neither the callee's body nor
	// the boxing of its arguments counts against the steady state.
	if f := funcFor(info, call.Fun); f != nil && pathInAny(funcPkgPath(f), exempt) {
		return
	}
	// Conversions.
	if t, ok := info.Types[ast.Unparen(call.Fun)]; ok && t.IsType() {
		if len(call.Args) == 1 && !isConst(info, call) {
			if at, ok := info.Types[call.Args[0]]; ok && at.Type != nil && allocConversion(at.Type, t.Type) {
				diag(call.Pos(), "performs a string/byte-slice conversion, which copies and allocates")
			}
			if boxes(info, call.Args[0], t.Type) {
				diag(call.Pos(), "converts a value to an interface, which heap-allocates the value")
			}
		}
		return
	}
	// Denylisted stdlib callees.
	if f := funcFor(info, call.Fun); f != nil {
		pkg := funcPkgPath(f)
		if allowed, denied := allocDeny[pkg]; denied {
			if !allowed[f.Name()] {
				diag(call.Pos(), "calls "+pkg+"."+f.Name()+", which allocates")
				return
			}
		}
	}
	// Interface-typed parameters box concrete arguments.
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread: no per-element boxing here
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, arg, pt) {
			diag(arg.Pos(), "passes a value as an interface argument, which heap-allocates the value")
		}
	}
}

// boxes reports whether assigning arg to a target of type t converts a
// concrete multi-word or heap-shy value into an interface — the boxing a
// capacity-preserving buffer rewrite cannot avoid. Pointers, channels, maps
// and funcs fit the interface word directly; nil and zero-size values never
// allocate; interface-to-interface assignment copies the word pair; a
// constant is boxed from read-only data the compiler emits for it.
func boxes(info *types.Info, arg ast.Expr, t types.Type) bool {
	if arg == nil {
		return false
	}
	tv, ok := info.Types[arg]
	return ok && !tv.IsNil() && tv.Value == nil && boxesType(tv.Type, t)
}

// boxesType is boxes for a value of type from, known not to be nil.
func boxesType(from, t types.Type) bool {
	if t == nil || from == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); !ok {
		return false
	}
	switch u := from.Underlying().(type) {
	case *types.Interface:
		return false
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.Invalid {
			return false
		}
	case *types.Struct:
		if u.NumFields() == 0 {
			return false
		}
	}
	return true
}

// allocConversion reports whether a conversion from from to to copies its
// operand: string <-> []byte/[]rune, integer -> string. Conversions between
// string types (named <-> built-in) are free.
func allocConversion(from, to types.Type) bool {
	fu, tu := from.Underlying(), to.Underlying()
	fb, fok := fu.(*types.Basic)
	tb, tok := tu.(*types.Basic)
	if tok && tb.Info()&types.IsString != 0 {
		if _, isSlice := fu.(*types.Slice); isSlice {
			return true
		}
		return fok && fb.Info()&types.IsInteger != 0
	}
	if _, isSlice := tu.(*types.Slice); isSlice {
		return fok && fb.Info()&types.IsString != 0
	}
	return false
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && obj.Parent() == types.Universe
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t, ok := info.Types[e]
	if !ok || t.Type == nil {
		return false
	}
	b, ok := t.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConst(info *types.Info, e ast.Expr) bool {
	t, ok := info.Types[e]
	return ok && t.Value != nil
}

// isSimpleExpr reports whether e is an identifier or selector chain — the
// shapes a sanctioned append base takes.
func isSimpleExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isSimpleExpr(e.X)
	}
	return false
}

// sameSimpleExpr reports whether two expressions are the same identifier or
// the same unparenthesised selector chain — the only shapes the sanctioned
// self-append patterns take.
func sameSimpleExpr(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		return ok && ae.Name == be.Name
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		return ok && ae.Sel.Name == be.Sel.Name && sameSimpleExpr(ae.X, be.X)
	}
	return false
}
