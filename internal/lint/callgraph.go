package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
)

// Program is the unit of interprocedural analysis: every package loaded for
// one lint run, sharing one file set, with a callgraph built on demand and
// shared by all program-level analyzers.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	byPath  map[string]*Package
	cg      *CallGraph
	rootDir string
}

// NewProgram wraps the loaded packages for program-level analysis.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{byPath: make(map[string]*Package, len(pkgs))}
	for _, pkg := range pkgs {
		if p.Fset == nil {
			p.Fset = pkg.Fset
		}
		p.Pkgs = append(p.Pkgs, pkg)
		p.byPath[pkg.Path] = pkg
	}
	if p.Fset == nil {
		p.Fset = token.NewFileSet()
	}
	return p
}

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// RootDir locates the module root (the directory holding go.mod) by walking
// up from the first loaded package; "" if none is found. errcode resolves
// Config.ErrCodeDoc (the DESIGN.md error-code table) against it.
func (p *Program) RootDir() string {
	if p.rootDir != "" {
		return p.rootDir
	}
	for _, pkg := range p.Pkgs {
		dir := pkg.Dir
		for dir != "" {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				p.rootDir = dir
				return dir
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return ""
}

// CallGraph builds (once) and returns the program's callgraph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// FuncInfo is one declared function or method of the analyzed program.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Sites are the call sites lexically inside this declaration,
	// including those inside function literals it contains: closures are
	// attributed to the declaration that spells them, which is also where
	// a diagnostic about them must point.
	Sites []*CallSite

	// In lists the sites elsewhere in the program that may invoke this
	// function — statically, or through an interface whose method set it
	// satisfies. Spawns (`go f()`) are included with ViaGo set.
	In []*CallSite
}

// Key is the config-file name for the function: "Name" for package-level
// functions, "Recv.Name" for methods (pointer receivers stripped).
func (f *FuncInfo) Key() string { return funcKey(f.Fn) }

func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := types.Unalias(sig.Recv().Type())
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// CallSite is one call expression, resolved as far as static analysis
// allows.
type CallSite struct {
	Caller *FuncInfo
	Call   *ast.CallExpr

	// CalleeFn is the statically named callee — possibly outside the
	// analyzed program (a stdlib function), possibly an interface method.
	// Nil for calls through func-typed values.
	CalleeFn *types.Func

	// Callees are the analyzed-program functions this site may invoke: one
	// for a static call, every satisfying method for an interface call.
	Callees []*FuncInfo

	ViaGo        bool // the call is the operand of a go statement
	ViaInterface bool // resolved through an interface method set
	InAwait      bool // lexically inside a Kernel.AwaitExternal callback
}

// Pos returns the site's position.
func (s *CallSite) Pos() token.Pos { return s.Call.Pos() }

// CallGraph maps every declared function of the program to its resolved
// call sites. Resolution is RTA-style over the analyzed packages only:
// static calls and go/defer statements resolve directly, interface calls
// resolve to every named type in the program whose method set satisfies the
// interface. Calls through func-typed values (fields, parameters) do not
// resolve — analyzers that need them (noalloc's registered-encoder roots)
// recover them by scanning the registration sites.
type CallGraph struct {
	prog  *Program
	funcs map[*types.Func]*FuncInfo
	order []*FuncInfo // deterministic iteration order (by position)
}

// Funcs returns every declared function in deterministic (position) order.
func (g *CallGraph) Funcs() []*FuncInfo { return g.order }

// FuncInfo returns the node for fn, or nil if fn is not declared in the
// analyzed program.
func (g *CallGraph) FuncInfo(fn *types.Func) *FuncInfo { return g.funcs[fn] }

// Lookup resolves a (package path, Key) pair from config to a node.
func (g *CallGraph) Lookup(pkgPath, key string) *FuncInfo {
	for _, fi := range g.order {
		if fi.Pkg.Path == pkgPath && fi.Key() == key {
			return fi
		}
	}
	return nil
}

// reportUnresolved reports each key of keys (package path → function keys,
// the shape of Config.AllocHot and Config.BridgeFuncs) that names no
// function declared in its package, at that package's clause: renaming or
// deleting a listed function would otherwise drop its coverage with no
// report. The keys of a package the program did not load are not judged.
func reportUnresolved(pass *ProgramPass, g *CallGraph, field string, keys map[string][]string) {
	paths := make([]string, 0, len(keys))
	for p := range keys {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg := pass.Prog.Package(p)
		if pkg == nil || len(pkg.Files) == 0 {
			continue
		}
		for _, key := range keys[p] {
			if g.Lookup(p, key) == nil {
				pass.Reportf(pkg.Files[0].Name.Pos(),
					"cfg.%s key %q names no function declared in %s; a renamed or deleted root drops its coverage silently, so update or remove the key", field, key, p)
			}
		}
	}
}

// awaitName is the kernel's external-wait bridge: the one method whose
// callback argument is the sanctioned place for sim-driven code to block on
// the host (virtual time frozen, kernel goroutine parked).
const awaitName = "AwaitExternal"

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{prog: prog, funcs: make(map[*types.Func]*FuncInfo)}

	// Pass 1: index every declaration.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				g.funcs[fn] = fi
				g.order = append(g.order, fi)
			}
		}
	}
	sort.Slice(g.order, func(i, j int) bool {
		return g.order[i].Decl.Pos() < g.order[j].Decl.Pos()
	})

	// Interface-method index: for every named type declared in the
	// program, the concrete methods implementing each (interface, method)
	// pair it satisfies.
	impls := buildImplIndex(prog, g)

	// Pass 2: walk every body, attributing sites lexically and tracking
	// AwaitExternal callback scopes.
	for _, fi := range g.order {
		w := &siteWalker{g: g, fi: fi, impls: impls}
		w.walk(fi.Decl.Body, false, false)
	}
	return g
}

// implIndex keys by interface method object; values are the concrete
// program functions that may stand behind it.
type implIndex map[*types.Func][]*FuncInfo

func buildImplIndex(prog *Program, g *CallGraph) implIndex {
	// Collect the named types and the interfaces of the program.
	var concrete []types.Type
	var ifaces []*types.Interface
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
				continue
			}
			concrete = append(concrete, named, types.NewPointer(named))
		}
	}
	idx := make(implIndex)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			for _, ct := range concrete {
				if !types.Implements(ct, iface) {
					continue
				}
				ms := types.NewMethodSet(ct)
				sel := ms.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				cf, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				if fi := g.funcs[cf]; fi != nil && !containsFunc(idx[im], fi) {
					idx[im] = append(idx[im], fi)
				}
			}
		}
	}
	return idx
}

func containsFunc(fis []*FuncInfo, fi *FuncInfo) bool {
	for _, f := range fis {
		if f == fi {
			return true
		}
	}
	return false
}

// siteWalker walks one declaration's body recording call sites. inAwait is
// true inside a function literal passed to Kernel.AwaitExternal; inGo marks
// literals that execute on a spawned goroutine (their sites escape any
// enclosing await scope).
type siteWalker struct {
	g     *CallGraph
	fi    *FuncInfo
	impls implIndex
}

func (w *siteWalker) walk(n ast.Node, inAwait, viaGo bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		w.site(n.Call, inAwait, true)
		w.walkCallOperands(n.Call, inAwait, true)
		return
	case *ast.DeferStmt:
		w.site(n.Call, inAwait, viaGo)
		w.walkCallOperands(n.Call, inAwait, viaGo)
		return
	case *ast.CallExpr:
		w.site(n, inAwait, viaGo)
		// An AwaitExternal call's function-literal argument is the
		// bridge callback: sites inside it are sanctioned blocking.
		await := false
		if f := funcFor(w.fi.Pkg.Info, n.Fun); f != nil && f.Name() == awaitName {
			await = true
		}
		w.walk(n.Fun, inAwait, viaGo)
		for _, arg := range n.Args {
			if lit, ok := arg.(*ast.FuncLit); ok && await {
				w.walk(lit.Body, true, viaGo)
				continue
			}
			w.walk(arg, inAwait, viaGo)
		}
		return
	case *ast.FuncLit:
		// A literal not directly consumed by AwaitExternal keeps the
		// enclosing scope's await status: a helper closure inside the
		// callback is still bridged; one spawned via `go` is not.
		w.walk(n.Body, inAwait, viaGo)
		return
	}
	// Generic traversal for everything else, one level at a time so the
	// cases above see their children first.
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		switch c.(type) {
		case *ast.GoStmt, *ast.DeferStmt, *ast.CallExpr, *ast.FuncLit:
			w.walk(c, inAwait, viaGo)
			return false
		}
		return true
	})
}

// walkCallOperands records sites in a go/defer call's fun and args without
// re-recording the call itself. A literal spawned by `go` loses any
// enclosing await coverage: the goroutine outlives the callback.
func (w *siteWalker) walkCallOperands(call *ast.CallExpr, inAwait, viaGo bool) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.walk(lit.Body, inAwait && !viaGo, viaGo)
	} else {
		w.walk(call.Fun, inAwait, viaGo)
	}
	for _, arg := range call.Args {
		w.walk(arg, inAwait, viaGo)
	}
}

func (w *siteWalker) site(call *ast.CallExpr, inAwait, viaGo bool) {
	info := w.fi.Pkg.Info
	fn := funcFor(info, call.Fun)
	if fn == nil {
		return // builtin, conversion, or func-typed value
	}
	s := &CallSite{
		Caller:   w.fi,
		Call:     call,
		CalleeFn: fn,
		ViaGo:    viaGo,
		InAwait:  inAwait,
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			recv := selection.Recv()
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				s.ViaInterface = true
				s.Callees = append(s.Callees, w.impls[fn]...)
			}
		}
	}
	if !s.ViaInterface {
		if fi := w.g.funcs[fn]; fi != nil {
			s.Callees = append(s.Callees, fi)
		}
	}
	w.fi.Sites = append(w.fi.Sites, s)
	for _, callee := range s.Callees {
		callee.In = append(callee.In, s)
	}
}
