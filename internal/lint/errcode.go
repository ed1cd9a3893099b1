package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// errsPath is the structured-error package whose Code constants the errcode
// analyzer audits.
const errsPath = "pvmigrate/internal/errs"

var backtickRE = regexp.MustCompile("`([^`]+)`")

// NewErrCode builds the errcode analyzer: every errs.Code is declared
// exactly once, as a named package-level constant — never as an inline
// string literal at a construction site — and every declared code appears
// (backquoted) in the DESIGN.md error-code table. Error codes are protocol
// surface: serve maps them to HTTP statuses and clients match on them, so a
// duplicate or undocumented code is API drift, caught here instead of by a
// confused operator.
func NewErrCode(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "errcode",
		Doc:  "require every errs.Code to be declared once, by name, and documented in the error-code table",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		type decl struct {
			pos  token.Pos
			name string
			pkg  string
		}
		declared := make(map[string][]decl) // code value -> declarations

		isCode := func(t types.Type) bool {
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return false
			}
			obj := named.Obj()
			return obj.Name() == "Code" && obj.Pkg() != nil && obj.Pkg().Path() == errsPath
		}

		for _, pkg := range pass.Prog.Pkgs {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							obj := pkg.Info.Defs[name]
							if obj == nil || !isCode(obj.Type()) {
								continue
							}
							c, ok := obj.(*types.Const)
							if !ok || c.Val().Kind() != constant.String {
								continue
							}
							v := constant.StringVal(c.Val())
							declared[v] = append(declared[v], decl{
								pos: name.Pos(), name: name.Name, pkg: pkg.Path,
							})
						}
					}
				}
			}
		}

		// Duplicates: one code value, one declaration.
		var values []string
		for v := range declared {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			ds := declared[v]
			for _, d := range ds[1:] {
				pass.Reportf(d.pos,
					"errs.Code %q is already declared as %s.%s at %s; protocol error codes are declared exactly once",
					v, ds[0].pkg, ds[0].name, pass.Prog.Fset.Position(ds[0].pos))
			}
		}

		// Inline literals at construction sites: any string literal where
		// a function expects an errs.Code, or an explicit errs.Code("…")
		// conversion outside a const declaration. Walked per declaration —
		// function bodies and package-level var initializers — rather than
		// over the callgraph, which only knows function bodies and would
		// let `var e = errs.Newf("literal", …)` escape.
		inspectCalls := func(info *types.Info, root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
					if isCode(tv.Type) && len(call.Args) == 1 {
						if _, lit := ast.Unparen(call.Args[0]).(*ast.BasicLit); lit {
							pass.Reportf(call.Pos(),
								"inline errs.Code conversion; declare the code as a package-level constant so it is documented and unique")
						}
					}
					return true
				}
				f := funcFor(info, call.Fun)
				if f == nil {
					return true
				}
				sig, ok := f.Type().(*types.Signature)
				if !ok {
					return true
				}
				params := sig.Params()
				for i, arg := range call.Args {
					if i >= params.Len() {
						break
					}
					if !isCode(params.At(i).Type()) {
						continue
					}
					if _, lit := ast.Unparen(arg).(*ast.BasicLit); lit {
						pass.Reportf(arg.Pos(),
							"inline error-code literal passed to %s; declare it as a package-level errs.Code constant",
							f.Name())
					}
				}
				return true
			})
		}
		for _, pkg := range pass.Prog.Pkgs {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Body != nil {
							inspectCalls(pkg.Info, d.Body)
						}
					case *ast.GenDecl:
						if d.Tok != token.VAR {
							continue
						}
						for _, spec := range d.Specs {
							vs, ok := spec.(*ast.ValueSpec)
							if !ok {
								continue
							}
							for _, v := range vs.Values {
								inspectCalls(pkg.Info, v)
							}
						}
					}
				}
			}
		}

		// Documentation coverage.
		docPath := cfg.ErrCodeDoc
		if docPath == "" {
			return nil
		}
		if !filepath.IsAbs(docPath) {
			root := pass.Prog.RootDir()
			if root == "" {
				return nil
			}
			docPath = filepath.Join(root, docPath)
		}
		doc, err := os.ReadFile(docPath)
		if err != nil {
			if len(values) > 0 {
				pass.Reportf(declared[values[0]][0].pos,
					"error-code document %s is unreadable: %v", cfg.ErrCodeDoc, err)
			}
			return nil
		}
		// Scan line by line, skipping fenced code blocks: an inline `code`
		// span never crosses a line, and a ``` fence's unpaired backticks
		// would otherwise flip the pairing parity for the whole rest of
		// the document.
		documented := make(map[string]bool)
		inFence := false
		for _, line := range strings.Split(string(doc), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range backtickRE.FindAllStringSubmatch(line, -1) {
				documented[m[1]] = true
			}
		}
		for _, v := range values {
			if !documented[v] {
				d := declared[v][0]
				pass.Reportf(d.pos,
					"errs.Code %q (%s.%s) is not documented in %s; add it to the error-code table",
					v, d.pkg, d.name, cfg.ErrCodeDoc)
			}
		}
		return nil
	}
	return a
}
