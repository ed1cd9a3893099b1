package lint

import (
	"go/types"
)

// blockingLeaf reports whether a callee outside the analyzed program can
// block on the host: the syscall-backed packages wholesale, plus the io
// primitives that forward to an underlying Reader/Writer (including the
// io.Reader/io.Writer/io.Closer interface methods themselves — a
// jw.w.Write through an io.Writer field is an *os.File write at run time).
func blockingLeaf(f *types.Func) bool {
	switch funcPkgPath(f) {
	case "net", "os", "syscall", "net/http":
		return true
	case "io":
		switch f.Name() {
		case "Read", "Write", "Close", "Seek",
			"ReadFull", "ReadAll", "ReadAtLeast",
			"Copy", "CopyN", "WriteString":
			return true
		}
	}
	return false
}

// NewBridgeCall builds the bridgecall analyzer: sim-driven code may reach
// blocking host I/O (syscall/net/os, io forwarding) only through the
// Kernel.AwaitExternal bridge — lexically inside the callback, so virtual
// time is provably frozen for the wait — or inside a function audited in
// cfg.BridgeFuncs (the wall side: HTTP handlers, the pacer; code the host
// invokes, never the kernel).
//
// The check is interprocedural: a helper that hides a conn.Write two frames
// deep is caught at the call that enters the helper. A helper is *covered*
// — its internal I/O sanctioned — when every one of its static call sites
// is itself inside an AwaitExternal callback, a bridge function, a covered
// function, or a package outside SimDriven (the cmd/ and examples/ entry
// points, which run before the kernel or instead of it). A function with no
// visible call sites is never covered: handlers registered by reference and
// goroutine bodies must be individually audited. Spawning a goroutine never
// confers coverage either — the goroutine outlives any callback it was
// spawned from.
func NewBridgeCall(cfg *Config) *Analyzer {
	bridge := make(map[string]map[string]bool, len(cfg.BridgeFuncs))
	for pkg, keys := range cfg.BridgeFuncs {
		m := make(map[string]bool, len(keys))
		for _, k := range keys {
			m[k] = true
		}
		bridge[pkg] = m
	}
	isBridge := func(fi *FuncInfo) bool {
		return fi != nil && bridge[fi.Pkg.Path][fi.Key()]
	}

	a := &Analyzer{
		Name: "bridgecall",
		Doc:  "require blocking host I/O reached from sim-driven code to sit inside Kernel.AwaitExternal or an audited bridge function",
	}
	a.RunProgram = func(pass *ProgramPass) error {
		g := pass.Prog.CallGraph()
		reportUnresolved(pass, g, "BridgeFuncs", cfg.BridgeFuncs)

		// blocking: can this program function reach a blocking leaf over
		// synchronous edges? witness: one leaf it reaches, for messages.
		blocking := make(map[*FuncInfo]bool)
		witness := make(map[*FuncInfo]string)
		var mark func(fi *FuncInfo, leaf string)
		mark = func(fi *FuncInfo, leaf string) {
			if fi == nil || blocking[fi] {
				return
			}
			blocking[fi] = true
			witness[fi] = leaf
			for _, s := range fi.In {
				// An awaited call is bridged at that site: callers above
				// it do not reach the blocking wait un-sanctioned. A
				// spawned goroutine blocks off the caller's path entirely.
				if s.ViaGo || s.InAwait {
					continue
				}
				mark(s.Caller, leaf)
			}
		}
		for _, fi := range g.Funcs() {
			for _, s := range fi.Sites {
				if s.InAwait || s.ViaGo {
					continue
				}
				if s.CalleeFn != nil && blockingLeaf(s.CalleeFn) {
					mark(fi, s.CalleeFn.FullName())
				}
			}
		}

		inScope := func(fi *FuncInfo) bool {
			return pathInAny(fi.Pkg.Path, cfg.SimDriven) &&
				!pathInAny(fi.Pkg.Path, cfg.BridgeAllow)
		}

		// siteBlocking: does this site enter blocking code?
		siteBlocking := func(s *CallSite) bool {
			if s.CalleeFn != nil && blockingLeaf(s.CalleeFn) {
				return true
			}
			for _, c := range s.Callees {
				if blocking[c] {
					return true
				}
			}
			return false
		}

		// covered: greatest fixpoint. Start optimistic for functions with
		// at least one synchronous call site, then strike out any whose
		// sites are not all sanctioned.
		covered := make(map[*FuncInfo]bool)
		eligibleSites := func(fi *FuncInfo) []*CallSite {
			var out []*CallSite
			for _, s := range fi.In {
				if !s.ViaGo {
					out = append(out, s)
				}
			}
			return out
		}
		for _, fi := range g.Funcs() {
			covered[fi] = len(eligibleSites(fi)) > 0
		}
		siteOK := func(s *CallSite) bool {
			if s.InAwait {
				return true
			}
			caller := s.Caller
			if !inScope(caller) { // cmd/, examples/, exempt tooling
				return true
			}
			return isBridge(caller) || covered[caller]
		}
		for changed := true; changed; {
			changed = false
			for _, fi := range g.Funcs() {
				if !covered[fi] {
					continue
				}
				for _, s := range eligibleSites(fi) {
					if !siteOK(s) {
						covered[fi] = false
						changed = true
						break
					}
				}
			}
		}

		// Report. Sites first: a blocking call outside any sanction, in a
		// function whose own invocations are not all sanctioned.
		for _, fi := range g.Funcs() {
			if !inScope(fi) {
				continue
			}
			sanctioned := isBridge(fi) || covered[fi]
			for _, s := range fi.Sites {
				if !siteBlocking(s) || s.InAwait {
					continue
				}
				if s.ViaGo {
					// A spawned goroutine escapes every callback; its
					// body must be individually audited.
					for _, c := range s.Callees {
						if blocking[c] && !isBridge(c) {
							pass.Reportf(s.Pos(),
								"goroutine %s.%s performs blocking host I/O (%s); audited bridge goroutines must be listed in cfg.BridgeFuncs",
								c.Pkg.Types.Name(), c.Key(), witness[c])
						}
					}
					continue
				}
				if sanctioned {
					continue
				}
				leaf := witnessFor(s, witness)
				pass.Reportf(s.Pos(),
					"%s.%s can reach blocking host I/O (%s) outside Kernel.AwaitExternal; wrap the wait in AwaitExternal, or audit the enclosing function in cfg.BridgeFuncs",
					fi.Pkg.Types.Name(), fi.Key(), leaf)
			}
			// A blocking function nobody visibly calls is an entry point
			// the host invokes by reference (handler, goroutine body): it
			// must be on the audited list.
			if blocking[fi] && !isBridge(fi) && len(eligibleSites(fi)) == 0 && hasUnawaitedBlocking(fi, blocking) {
				pass.Reportf(fi.Decl.Pos(),
					"%s.%s reaches blocking host I/O (%s) and has no statically-visible callers; if it is a wall-side entry point, audit it in cfg.BridgeFuncs",
					fi.Pkg.Types.Name(), fi.Key(), witness[fi])
			}
		}
		return nil
	}
	return a
}

// hasUnawaitedBlocking reports whether fi contains at least one blocking
// site outside an AwaitExternal callback — a function whose every blocking
// wait is already bridged needs no audit even if nobody visibly calls it.
func hasUnawaitedBlocking(fi *FuncInfo, blocking map[*FuncInfo]bool) bool {
	for _, s := range fi.Sites {
		if s.InAwait || s.ViaGo {
			continue
		}
		if s.CalleeFn != nil && blockingLeaf(s.CalleeFn) {
			return true
		}
		for _, c := range s.Callees {
			if blocking[c] {
				return true
			}
		}
	}
	return false
}

func witnessFor(s *CallSite, witness map[*FuncInfo]string) string {
	if s.CalleeFn != nil && blockingLeaf(s.CalleeFn) {
		return s.CalleeFn.FullName()
	}
	for _, c := range s.Callees {
		if w := witness[c]; w != "" {
			return w + " via " + c.Pkg.Types.Name() + "." + c.Key()
		}
	}
	return "blocking I/O"
}
