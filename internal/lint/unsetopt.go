package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// optionStructRE names the structs unsetopt treats as option tables.
var optionStructRE = regexp.MustCompile(`(Config|Params|Policy|Scenario|Spec|Options)$`)

// NewUnsetOpt builds the unsetopt analyzer: an exported field of an
// exported option struct (name ending Config, Params, Policy, Scenario,
// Spec or Options) that no loaded package writes outside its own defaults
// function is an option nobody turns — every independently settable value
// doubles the configurations tests and benchmarks must cover, so with one
// value in use it is a constant. A write is a composite-literal key (an
// unkeyed literal sets every field), an assignment or ++/-- through the
// field, or taking its address (flag.IntVar(&cfg.Hosts, …)). Functions
// named Default* or withDefaults do not count: they are where the one
// value lives. Fields with a struct tag are filled by a decoder and exempt;
// fields only tests or a not-yet-editable caller vary are listed, with the
// reason, in cfg.UnsetOptAllow.
func NewUnsetOpt(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "unsetopt",
		Doc:  "flag option-struct fields that nothing sets outside their own defaults",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		written := make(map[*types.Var]bool)
		for _, pkg := range pass.Prog.Pkgs {
			info := pkg.Info
			// markPath marks every field selected on the way to a written
			// location: `c.Opt.Step = 1` sets Step and, through it, Opt;
			// `c.Hot[k] = v` sets Hot.
			var markPath func(e ast.Expr)
			markPath = func(e ast.Expr) {
				switch e := ast.Unparen(e).(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
						written[sel.Obj().(*types.Var)] = true
					}
					markPath(e.X)
				case *ast.IndexExpr:
					markPath(e.X)
				case *ast.StarExpr:
					markPath(e.X)
				}
			}
			visit := func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv, ok := info.Types[n]
					if !ok {
						break
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for _, elt := range n.Elts {
						kv, keyed := elt.(*ast.KeyValueExpr)
						if !keyed {
							for i := 0; i < st.NumFields(); i++ {
								written[st.Field(i)] = true
							}
							break
						}
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[f] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markPath(lhs)
					}
				case *ast.IncDecStmt:
					markPath(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markPath(n.X)
					}
				}
				return true
			}
			for _, file := range pkg.Files {
				if !cfg.IncludeTests && testFile(pkg.Fset, file.Pos()) {
					continue
				}
				for _, d := range file.Decls {
					if fd, ok := d.(*ast.FuncDecl); !ok || !defaultsFunc(fd.Name.Name) {
						ast.Inspect(d, visit)
					}
				}
			}
		}

		for _, pkg := range pass.Prog.Pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || tn.IsAlias() || !optionStructRE.MatchString(name) {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if _, allowed := cfg.UnsetOptAllow[pkg.Path+"."+name]; !ok || allowed {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					qual := pkg.Path + "." + name + "." + f.Name()
					if _, allowed := cfg.UnsetOptAllow[qual]; allowed || written[f] || !f.Exported() || st.Tag(i) != "" {
						continue
					}
					pass.Reportf(f.Pos(),
						"option %s is set nowhere outside its own defaults; make it a constant beside the code that reads it, or list it in lint.Config.UnsetOptAllow with the reason",
						qual)
				}
			}
		}
		return nil
	}
	return a
}

// defaultsFunc reports whether a function is where an option struct's
// default values live: Default*, withDefaults or WithDefaults.
func defaultsFunc(name string) bool {
	return strings.HasPrefix(name, "Default") || strings.EqualFold(name, "withDefaults")
}
