package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the ambient-time entry points that break virtual-time
// determinism: each reads or arms the host's real clock, so any sim-driven
// code touching one produces schedules the kernel cannot replay.
var wallClockFuncs = map[string]map[string]bool{
	"time": {
		"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
		"Tick": true, "NewTimer": true, "NewTicker": true,
		"Since": true, "Until": true,
	},
	"context": {
		"WithTimeout": true, "WithDeadline": true,
	},
}

// NewNoWallClock builds the nowallclock analyzer: sim-driven packages take
// time only from sim.Kernel.Now and delays only from sim.Proc.Sleep /
// Kernel.Schedule. The kernel package itself is allowlisted via
// cfg.WallClockAllow (it implements virtual time); cmd/ and examples/
// entry points fall outside cfg.SimDriven.
func NewNoWallClock(cfg *Config) *Analyzer {
	a := &Analyzer{
		Name: "nowallclock",
		Doc:  "forbid wall-clock time sources in sim-driven code",
	}
	a.Run = func(pass *Pass) error {
		path := pass.Pkg.Path()
		if !pathInAny(path, cfg.SimDriven) || pathInAny(path, cfg.WallClockAllow) {
			return nil
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
				if !ok || !isPkgLevel(f) {
					return true
				}
				if names, ok := wallClockFuncs[funcPkgPath(f)]; ok && names[f.Name()] {
					pass.Reportf(sel.Pos(),
						"%s.%s reads the wall clock in sim-driven code; use the sim kernel's virtual time (Kernel.Now / Proc.Sleep / Kernel.Schedule)",
						funcPkgPath(f), f.Name())
				}
				return true
			})
		}
		return nil
	}
	return a
}
