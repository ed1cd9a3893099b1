package lint_test

import (
	"path/filepath"
	"testing"

	"pvmigrate/internal/lint"
	"pvmigrate/internal/lint/linttest"
)

// simDrivenPath is an import path the default config treats as sim-driven;
// fixtures loaded under it must obey every determinism invariant.
const simDrivenPath = "pvmigrate/internal/lintfixture"

// kernelPath is the allowlisted kernel package: the same source loaded
// here must produce no diagnostics.
const kernelPath = "pvmigrate/internal/sim"

// servePath is the allowlisted daemon package: its pacer lives on the wall
// side of the AwaitExternal bridge, so nowallclock stands down for this
// one path.
const servePath = "pvmigrate/internal/serve"

func fixture(analyzer, variant string) string {
	return filepath.Join("testdata", "src", analyzer, variant)
}

func TestNoWallClock(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewNoWallClock(cfg), fixture("nowallclock", "flagged"), simDrivenPath)
	linttest.Run(t, lint.NewNoWallClock(cfg), fixture("nowallclock", "allowed"), kernelPath)
	// The daemon pacer's tickers and timestamps are silent under the serve
	// path and fully flagged under any other sim-driven path.
	linttest.Run(t, lint.NewNoWallClock(cfg), fixture("nowallclock", "servepacer"), servePath)
	linttest.Run(t, lint.NewNoWallClock(cfg), fixture("nowallclock", "servepacerelsewhere"), simDrivenPath)
}

func TestMapOrder(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewMapOrder(cfg), fixture("maporder", "flagged"), simDrivenPath)
	linttest.Run(t, lint.NewMapOrder(cfg), fixture("maporder", "allowed"), simDrivenPath)
}

func TestDroppedErr(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewDroppedErr(cfg), fixture("droppederr", "flagged"), simDrivenPath)
	linttest.Run(t, lint.NewDroppedErr(cfg), fixture("droppederr", "allowed"), simDrivenPath)
}

func TestNoAlloc(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.AllocHot = map[string][]string{simDrivenPath: {"Hot"}}
	// flagged: every allocating shape caught, in the entry point's helpers
	// and in a registered wire encoder; cold functions allocate freely.
	linttest.Run(t, lint.NewNoAlloc(cfg), fixture("noalloc", "flagged"), simDrivenPath)
	// audited: `// lint:alloc` suppresses on the line or the line above,
	// and a directive suppressing nothing is itself a finding.
	linttest.Run(t, lint.NewNoAlloc(cfg), fixture("noalloc", "audited"), simDrivenPath)
	// exempt: calls into cfg.AllocExempt packages (structured errors) are
	// failure-path escapes — body and argument boxing both uncounted.
	linttest.Run(t, lint.NewNoAlloc(cfg), fixture("noalloc", "exempt"), simDrivenPath)
	// deadroot: an AllocHot key naming no function in its loaded package
	// is a finding, not a silent loss of coverage.
	dcfg := lint.DefaultConfig()
	dcfg.AllocHot = map[string][]string{simDrivenPath: {"Hot", "Gone"}}
	linttest.Run(t, lint.NewNoAlloc(dcfg), fixture("noalloc", "deadroot"), simDrivenPath)
}

func TestBridgeCall(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewBridgeCall(cfg), fixture("bridgecall", "flagged"), simDrivenPath)
	// The same chain inside an AwaitExternal callback is silent: coverage
	// is interprocedural, any depth down.
	linttest.Run(t, lint.NewBridgeCall(cfg), fixture("bridgecall", "awaited"), simDrivenPath)
	// An audited bridge function may block; its unaudited neighbour may
	// not — the allowlist names functions, not packages.
	bcfg := lint.DefaultConfig()
	bcfg.BridgeFuncs[simDrivenPath] = []string{"Pump"}
	linttest.Run(t, lint.NewBridgeCall(bcfg), fixture("bridgecall", "bridged"), simDrivenPath)
	// A BridgeFuncs key naming no function in its loaded package is a
	// finding; the keys of packages not loaded (serve, netsim) are not.
	dcfg := lint.DefaultConfig()
	dcfg.BridgeFuncs[simDrivenPath] = []string{"Pump", "Gone"}
	linttest.Run(t, lint.NewBridgeCall(dcfg), fixture("bridgecall", "deadroot"), simDrivenPath)
}

func TestErrCode(t *testing.T) {
	cfg := lint.DefaultConfig()
	doc, err := filepath.Abs(filepath.Join(fixture("errcode", "flagged"), "DOC.md"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.ErrCodeDoc = doc
	linttest.Run(t, lint.NewErrCode(cfg), fixture("errcode", "flagged"), simDrivenPath)
}

func TestUnsetOpt(t *testing.T) {
	cfg := lint.DefaultConfig()
	// flagged: fields written only inside Default*/withDefaults, under
	// every option-struct suffix; tagged, unexported and non-option
	// structs stay silent.
	linttest.Run(t, lint.NewUnsetOpt(cfg), fixture("unsetopt", "flagged"), simDrivenPath)
	// clean: each way of setting a field (keyed and unkeyed literal,
	// assignment, ++, through a nested field or a map index, by address).
	// The audited UnsetOptAllow list is exercised by TestRepoClean.
	linttest.Run(t, lint.NewUnsetOpt(cfg), fixture("unsetopt", "clean"), simDrivenPath)
}

// TestRepoClean runs the whole suite — per-package and interprocedural
// analyzers alike — over the whole repository as one program: the merged
// tree carries zero findings, and stays that way. This is the same gate CI
// runs via `go run ./cmd/pvmlint ./...`; skipped under -short because it
// type-checks the full module from source.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint is not a -short test")
	}
	loader := lint.NewLoader()
	pkgs, err := loader.LoadPatterns([]string{"pvmigrate/..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	diags, err := lint.RunAll(lint.NewProgram(pkgs), lint.All(lint.DefaultConfig()))
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
	}
}
