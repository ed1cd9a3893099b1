package lint

import (
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// registration is one wirefmt.Register call, resolved.
type registration struct {
	pkg  *Package
	call *ast.CallExpr
	tag  int
	name string
	typ  types.Type // the sample argument's type
	enc  bool
	dec  bool
}

// NewWireTag builds the wiretag analyzer: the four binwire.go registries
// must conform to the wire spec — every tag unique and inside its package's
// assigned block, every registration carrying both an encoder and a
// decoder, every tag exercised by a TestGoldenWireBytes hex fixture, and
// every registered type's encoded field shape pinned in the committed
// wiretags.lock. Changing a wire struct's field set without regenerating
// the lockfile (and bumping wirefmt.Version) is exactly the marshalling
// drift that breaks cross-version migration, so it fails here, statically,
// instead of at the first mixed-version handshake.
func NewWireTag(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "wiretag",
		Doc:  "cross-check the wire-tag registries: ranges, uniqueness, enc+dec, golden fixtures, and the wiretags.lock shape pin",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		regs := collectRegistrations(pass.Prog)
		if len(regs) == 0 {
			return nil
		}

		// Ranges, uniqueness, enc/dec presence.
		byTag := make(map[int][]*registration)
		for _, r := range regs {
			byTag[r.tag] = append(byTag[r.tag], r)
			rng, ok := cfg.WireRanges[r.pkg.Path]
			if !ok {
				pass.Reportf(r.call.Pos(),
					"package %s registers wire tag %d but has no assigned tag range in cfg.WireRanges", r.pkg.Path, r.tag)
			} else if r.tag < rng[0] || r.tag > rng[1] {
				pass.Reportf(r.call.Pos(),
					"wire tag %d (%s) is outside %s's assigned range %d–%d", r.tag, r.name, r.pkg.Path, rng[0], rng[1])
			}
			if !r.enc {
				pass.Reportf(r.call.Pos(), "wire tag %d (%s) registers no encoder", r.tag, r.name)
			}
			if !r.dec {
				pass.Reportf(r.call.Pos(), "wire tag %d (%s) registers no decoder", r.tag, r.name)
			}
		}
		var tags []int
		for t := range byTag {
			tags = append(tags, t)
		}
		sort.Ints(tags)
		for _, t := range tags {
			if rs := byTag[t]; len(rs) > 1 {
				for _, r := range rs[1:] {
					pass.Reportf(r.call.Pos(),
						"wire tag %d (%s) is already registered as %s at %s",
						t, r.name, rs[0].name, pass.Prog.Fset.Position(rs[0].call.Pos()))
				}
			}
		}

		// Golden-fixture coverage: every registered tag must appear in a
		// TestGoldenWireBytes hex fixture in its own package.
		goldenByDir := make(map[string]map[int]bool)
		for _, r := range regs {
			if _, ok := goldenByDir[r.pkg.Dir]; !ok {
				goldenByDir[r.pkg.Dir] = goldenTags(r.pkg.Dir)
			}
			if !goldenByDir[r.pkg.Dir][r.tag] {
				pass.Reportf(r.call.Pos(),
					"wire tag %d (%s) has no TestGoldenWireBytes fixture in %s; add a hand-computed golden frame so byte-layout drift fails a test",
					r.tag, r.name, r.pkg.Path)
			}
		}

		// Shape lock.
		lockPath := cfg.WireLock
		if lockPath != "" && !filepath.IsAbs(lockPath) {
			root := pass.Prog.RootDir()
			if root == "" {
				return nil // nothing to resolve against; loader tests
			}
			lockPath = filepath.Join(root, lockPath)
		}
		want := WireLockContent(pass.Prog, cfg)
		got, err := os.ReadFile(lockPath)
		anchor := regs[0].call.Pos()
		if err != nil {
			pass.Reportf(anchor,
				"wire shape lockfile %s is missing; generate it with `go run ./cmd/pvmlint -write-wiretags`", cfg.WireLock)
			return nil
		}
		if string(got) != want {
			reportLockDrift(pass, regs, string(got), want, cfg.WireLock)
		}
		return nil
	}
	return a
}

// collectRegistrations finds every wirefmt.Register call in the program and
// resolves its arguments. Order is deterministic (callgraph order is
// position-sorted).
func collectRegistrations(prog *Program) []*registration {
	var regs []*registration
	for _, fi := range prog.CallGraph().Funcs() {
		for _, s := range fi.Sites {
			if s.CalleeFn == nil || s.CalleeFn.Name() != "Register" ||
				funcPkgPath(s.CalleeFn) != wirefmtPath || len(s.Call.Args) != 5 {
				continue
			}
			info := fi.Pkg.Info
			r := &registration{pkg: fi.Pkg, call: s.Call, tag: -1}
			if tv, ok := info.Types[s.Call.Args[0]]; ok && tv.Value != nil {
				if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
					r.tag = int(v)
				}
			}
			if tv, ok := info.Types[s.Call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				r.name = constant.StringVal(tv.Value)
			}
			if tv, ok := info.Types[s.Call.Args[2]]; ok {
				r.typ = tv.Type
			}
			r.enc = !isNilExpr(info, s.Call.Args[3])
			r.dec = !isNilExpr(info, s.Call.Args[4])
			if r.tag >= 0 {
				regs = append(regs, r)
			}
		}
	}
	return regs
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// goldenTags parses dir's _test.go files (syntactically — test files are
// outside the type-checked program on purpose) and extracts the wire tags
// of every hex fixture in a file declaring TestGoldenWireBytes: a string
// constant that decodes to a frame starting with the "PW" magic, tag at
// bytes 3–4, little-endian. The whole file is scanned, not just the test
// body, because fixture tables conventionally live in a helper shared with
// the codec-differential test. Adjacent string concatenations are folded,
// matching the fixtures' segmented spelling.
func goldenTags(dir string) map[int]bool {
	tags := make(map[int]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return tags
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			continue
		}
		hasGolden := false
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "TestGoldenWireBytes" && fd.Body != nil {
				hasGolden = true
				break
			}
		}
		if !hasGolden {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			s, ok := foldStrings(e)
			if !ok {
				return true
			}
			raw, err := hex.DecodeString(s)
			if err != nil || len(raw) < 5 || raw[0] != 'P' || raw[1] != 'W' {
				return true
			}
			tags[int(raw[3])|int(raw[4])<<8] = true
			return false
		})
	}
	return tags
}

// foldStrings evaluates an expression made only of string literals and +.
func foldStrings(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s := e.Value
		if len(s) >= 2 {
			return s[1 : len(s)-1], true
		}
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, ok := foldStrings(e.X)
		if !ok {
			return "", false
		}
		r, ok := foldStrings(e.Y)
		if !ok {
			return "", false
		}
		return l + r, true
	}
	return "", false
}

// WireLockContent renders the canonical lockfile for the program's
// registrations: a tag line per registration and a type line per named
// struct reachable from a registered sample, fields in declaration order
// with their wire-relevant kinds. cmd/pvmlint -write-wiretags writes this;
// the wiretag analyzer diffs the committed file against it.
func WireLockContent(prog *Program, cfg *Config) string {
	regs := collectRegistrations(prog)
	var b strings.Builder
	b.WriteString("# pvmigrate wire shape lock. Regenerate with:\n")
	b.WriteString("#   go run ./cmd/pvmlint -write-wiretags\n")
	b.WriteString("# Any diff here is a wire-format change: bump wirefmt.Version in the\n")
	b.WriteString("# same commit, or revert the struct change.\n")
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].tag < regs[j].tag })
	shapes := make(map[string]string)
	var order []string
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return
		}
		key := typeDisplay(named)
		if _, seen := shapes[key]; seen {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			shapes[key] = key + " = " + kindDisplay(named.Underlying())
			order = append(order, key)
			return
		}
		var fields []string
		shapes[key] = "" // reserve before recursing: cycles terminate
		order = append(order, key)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fields = append(fields, f.Name()+":"+kindDisplay(f.Type()))
		}
		shapes[key] = key + " = " + strings.Join(fields, ", ")
		for i := 0; i < st.NumFields(); i++ {
			walk(st.Field(i).Type())
		}
	}
	for _, r := range regs {
		fmt.Fprintf(&b, "tag %d %s %s\n", r.tag, r.name, typeKey(r.typ))
		if r.typ != nil {
			walk(r.typ)
		}
	}
	for _, key := range order {
		b.WriteString("type " + shapes[key] + "\n")
	}
	return b.String()
}

func typeKey(t types.Type) string {
	if t == nil {
		return "?"
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		return "*" + typeKey(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return typeDisplay(named)
	}
	return t.String()
}

func typeDisplay(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// kindDisplay renders a field type's wire-relevant kind: named types keep
// their identity (with the underlying kind for non-structs), composites
// recurse, basics are themselves. An alias is the type it names: the lock
// pins wire shapes, and `type Time = time.Duration` has time.Duration's.
func kindDisplay(t types.Type) string {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if _, ok := t.Underlying().(*types.Struct); ok {
			return typeDisplay(t)
		}
		return typeDisplay(t) + "<" + kindDisplay(t.Underlying()) + ">"
	case *types.Pointer:
		return "*" + kindDisplay(t.Elem())
	case *types.Slice:
		return "[]" + kindDisplay(t.Elem())
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), kindDisplay(t.Elem()))
	case *types.Map:
		return "map[" + kindDisplay(t.Key()) + "]" + kindDisplay(t.Elem())
	case *types.Interface:
		if t.NumMethods() == 0 {
			return "any"
		}
		return t.String()
	case *types.Basic:
		return t.Name()
	case *types.Struct:
		var fields []string
		for i := 0; i < t.NumFields(); i++ {
			fields = append(fields, t.Field(i).Name()+":"+kindDisplay(t.Field(i).Type()))
		}
		return "struct{" + strings.Join(fields, ", ") + "}"
	}
	return t.String()
}

// reportLockDrift diffs the committed lock against the canonical content
// line-by-line and reports each drifted line at the registration it
// concerns (falling back to the first registration).
func reportLockDrift(pass *ProgramPass, regs []*registration, got, want, lockName string) {
	gotLines := make(map[string]bool)
	for _, l := range strings.Split(got, "\n") {
		gotLines[l] = true
	}
	wantLines := make(map[string]bool)
	for _, l := range strings.Split(want, "\n") {
		wantLines[l] = true
	}
	anchorFor := func(line string) token.Pos {
		for _, r := range regs {
			if strings.Contains(line, typeKey(r.typ)) || strings.Contains(line, " "+r.name+" ") {
				return r.call.Pos()
			}
		}
		return regs[0].call.Pos()
	}
	reported := 0
	for _, l := range strings.Split(want, "\n") {
		if l == "" || strings.HasPrefix(l, "#") || gotLines[l] {
			continue
		}
		pass.Reportf(anchorFor(l),
			"wire shape drift: %s does not pin %q; if the wire change is intentional, bump wirefmt.Version and regenerate with `go run ./cmd/pvmlint -write-wiretags`",
			lockName, l)
		reported++
	}
	for _, l := range strings.Split(got, "\n") {
		if l == "" || strings.HasPrefix(l, "#") || wantLines[l] {
			continue
		}
		pass.Reportf(anchorFor(l),
			"wire shape drift: %s pins %q, which no longer matches any registration; regenerate with `go run ./cmd/pvmlint -write-wiretags`",
			lockName, l)
		reported++
	}
	if reported == 0 {
		pass.Reportf(regs[0].call.Pos(),
			"wire shape lockfile %s differs from the registries (ordering or header); regenerate with `go run ./cmd/pvmlint -write-wiretags`", lockName)
	}
}
