package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// optionStructRE names the structs fielduse treats as option tables.
var optionStructRE = regexp.MustCompile(`(Config|Params|Policy|Scenario|Spec|Options)$`)

// NewFieldUse builds the fielduse analyzer. One walk over the loaded
// program records which struct fields are written and which are read, and
// two rules judge the result:
//
//   - unset: an exported field of an exported option struct (name ending
//     Config, Params, Policy, Scenario, Spec or Options) that no loaded
//     package writes outside its own defaults function is an option nobody
//     turns — with one value in use it is a constant. A write is a
//     composite-literal key (an unkeyed literal sets every field), an
//     assignment or ++/-- through the field, or taking its address
//     (flag.IntVar(&cfg.Hosts, …)). Writes inside functions named Default*
//     or withDefaults do not count: they are where the one value lives.
//   - unread: a named struct's field that no loaded code reads is state
//     nothing observes. A read is a field selector anywhere but an
//     assignment's left side, ++/--, or the x.f of `x.f = append(x.f, …)`;
//     &x.f counts, so does a promoted selection, and so does a pointer
//     field a write goes through (`c.stats.n++` reads stats). A struct (or
//     pointer to one) passed, assigned or put in a composite literal as an
//     empty interface, compared whole with ==, or used as a map key in an
//     index has every field read, nested struct fields too: fmt,
//     encoding/json and Proc.Interrupt's %v see them all. (A struct
//     returned as an empty interface is not seen.)
//
// The loader reads no _test.go file, so a field only a test reads is
// unread. Fields with a struct tag are filled or read by a decoder and
// exempt from both rules; embedded and blank fields are exempt from the
// second. cfg.FieldAllow names, each with its reason, the packages,
// structs and fields the rules pass over.
func NewFieldUse(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "fielduse",
		Doc:  "flag option fields nothing sets and struct fields nothing reads",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		w := &fieldWalk{
			read:    make(map[*types.Var]bool),
			written: make(map[*types.Var]bool),
			onLeft:  make(map[*ast.SelectorExpr]bool),
		}
		for _, pkg := range pass.Prog.Pkgs {
			w.info = pkg.Info
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					fd, isFunc := d.(*ast.FuncDecl)
					w.inDefaults = isFunc && defaultsFunc(fd.Name.Name)
					ast.Inspect(d, w.visit)
				}
			}
		}

		// excused reports whether FieldAllow lists the field, its struct or
		// its package, and marks the entry used.
		used := make(map[string]bool)
		excused := func(pkg, typ, field string) bool {
			for _, k := range []string{pkg, pkg + "." + typ, pkg + "." + typ + "." + field} {
				if _, ok := cfg.FieldAllow[k]; ok {
					used[k] = true
					return true
				}
			}
			return false
		}
		for _, pkg := range pass.Prog.Pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					spec, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						return true
					}
					tn := pkg.Info.Defs[spec.Name]
					option := tn.Parent() == pkg.Types.Scope() && tn.Exported() && optionStructRE.MatchString(tn.Name())
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							f := pkg.Info.Defs[id].(*types.Var)
							unset := option && f.Exported() && !w.written[f]
							unread := !w.read[f] && id.Name != "_"
							if fl.Tag != nil || !unset && !unread || excused(pkg.Path, tn.Name(), id.Name) {
								continue
							}
							qual := pkg.Path + "." + tn.Name() + "." + id.Name
							if unset {
								pass.Reportf(id.Pos(),
									"option %s is set nowhere outside its own defaults; make it a constant beside the code that reads it, or list it in lint.Config.FieldAllow with the reason",
									qual)
							}
							if unread {
								pass.Reportf(id.Pos(),
									"field %s is read by no non-test code; delete it, or list it in lint.Config.FieldAllow with the reason",
									qual)
							}
						}
					}
					return true
				})
			}
		}

		// An entry of a loaded package that excuses nothing is stale.
		for _, pkg := range pass.Prog.Pkgs {
			for k := range cfg.FieldAllow {
				if !used[k] && (k == pkg.Path || strings.HasPrefix(k, pkg.Path+".")) {
					pass.Reportf(pkg.Files[0].Name.Pos(),
						"lint.Config.FieldAllow entry %s excuses no field; remove it", k)
				}
			}
		}
		return nil
	}
	return a
}

// fieldWalk is fielduse's walk over the program, one declaration at a time.
type fieldWalk struct {
	info          *types.Info // of the package being walked
	read, written map[*types.Var]bool
	// inDefaults is set inside a defaults function, whose writes do not
	// count.
	inDefaults bool
	// onLeft holds the selectors on an assignment's written path: visited
	// later, they are not reads.
	onLeft map[*ast.SelectorExpr]bool
}

func (w *fieldWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if f := w.field(n); f != nil && !w.onLeft[n] {
			w.read[f] = true
		}
	case *ast.CompositeLit:
		// Each element is written to a field (an unkeyed struct literal
		// lists every field), or stored as an element, key or value.
		t := w.under(n)
		for i, elt := range n.Elts {
			key, val := ast.Expr(nil), elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				key, val = kv.Key, kv.Value
			}
			switch t := t.(type) {
			case *types.Struct:
				f := t.Field(i)
				if key != nil {
					f = w.info.Uses[key.(*ast.Ident)].(*types.Var)
				}
				if !w.inDefaults {
					w.written[f.Origin()] = true
				}
				w.toAny(val, f.Type())
			case *types.Slice:
				w.toAny(val, t.Elem())
			case *types.Array:
				w.toAny(val, t.Elem())
			case *types.Map:
				w.toAny(key, t.Key())
				w.toAny(val, t.Elem())
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			w.markPath(lhs, true)
			if len(n.Lhs) == len(n.Rhs) {
				w.skipSelfAppend(lhs, n.Rhs[i])
				w.toAny(n.Rhs[i], w.info.TypeOf(lhs))
			}
		}
	case *ast.IncDecStmt:
		w.markPath(n.X, true)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.markPath(n.X, false)
		}
	case *ast.IndexExpr:
		// A map keyed by a struct hashes and compares every key field.
		if m, ok := w.under(n.X).(*types.Map); ok {
			w.readAll(m.Key(), false)
		}
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			w.readAll(w.info.TypeOf(n.X), false)
		}
	case *ast.CallExpr:
		tv, ok := w.info.Types[n.Fun]
		if !ok {
			break
		}
		if tv.IsType() {
			if len(n.Args) == 1 {
				w.toAny(n.Args[0], tv.Type)
			}
			break
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			break
		}
		for i, arg := range n.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				pt = sig.Params().At(sig.Params().Len() - 1).Type()
				if s, ok := pt.(*types.Slice); ok && !n.Ellipsis.IsValid() {
					pt = s.Elem()
				}
			case i < sig.Params().Len():
				pt = sig.Params().At(i).Type()
			}
			w.toAny(arg, pt)
		}
	}
	return true
}

// field resolves a selector to the (origin of the) struct field it
// selects; nil for methods, package members and qualified identifiers.
func (w *fieldWalk) field(sel *ast.SelectorExpr) *types.Var {
	s := w.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var).Origin()
}

// under is e's underlying type, or nil where the checker recorded none.
func (w *fieldWalk) under(e ast.Expr) types.Type {
	if t := w.info.TypeOf(e); t != nil {
		return t.Underlying()
	}
	return nil
}

// markPath records the fields selected on the way to a written location:
// `c.Opt.Step = 1` sets Step and, through it, Opt; `c.Hot[k] = v` sets
// Hot; `&c.Depth` may be written through. On an assignment's left side
// (onLeft) they are not read, up to the first pointer the path goes
// through: `c.stats.n++` reads stats to find the n it writes.
func (w *fieldWalk) markPath(e ast.Expr, onLeft bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if f := w.field(e); f != nil {
			if onLeft {
				w.onLeft[e] = true
			}
			if !w.inDefaults {
				w.written[f] = true
			}
		}
		w.markPath(e.X, onLeft && !w.isPointer(e.X))
	case *ast.IndexExpr:
		w.markPath(e.X, onLeft && !w.isPointer(e.X))
	case *ast.StarExpr:
		w.markPath(e.X, false)
	}
}

func (w *fieldWalk) isPointer(e ast.Expr) bool {
	_, ok := w.under(e).(*types.Pointer)
	return ok
}

// skipSelfAppend keeps the x.f of `x.f = append(x.f, …)` from counting as
// a read: a log only ever appended to is written, not observed.
func (w *fieldWalk) skipSelfAppend(lhs, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || w.info.Uses[id] != types.Universe.Lookup("append") {
		return
	}
	if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && types.ExprString(sel) == types.ExprString(lhs) {
		w.markPath(sel, true)
	}
}

// toAny reads every field of v's struct type when v flows into an empty
// interface (to): whatever holds it next may print or encode the whole
// value.
func (w *fieldWalk) toAny(v ast.Expr, to types.Type) {
	if v == nil || to == nil {
		return
	}
	if it, ok := to.Underlying().(*types.Interface); ok && it.Empty() {
		w.readAll(w.info.TypeOf(v), true)
	}
}

// readAll marks every field of t read, recursing into nested structs and
// arrays; through a pointer only at the top (fmt prints &{…} for a pointer
// argument, an address for a nested one).
func (w *fieldWalk) readAll(t types.Type, deref bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if deref {
			w.readAll(u.Elem(), false)
		}
	case *types.Array:
		w.readAll(u.Elem(), false)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i).Origin()
			w.read[f] = true
			w.readAll(f.Type(), false)
		}
	}
}

// defaultsFunc reports whether a function is where an option struct's
// default values live: Default*, withDefaults or WithDefaults.
func defaultsFunc(name string) bool {
	return strings.HasPrefix(name, "Default") || strings.EqualFold(name, "withDefaults")
}
