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

// sweepPath is the allowlisted sweep-runner package: its worker-pool
// fan-out of whole independent runs is one of the two host concurrencies
// sanctioned outside the kernel.
const sweepPath = "pvmigrate/internal/sweep"

// netwirePath is the allowlisted wire-transport package: its socket bridge
// goroutines are the other sanctioned host concurrency (and the one
// sanctioned wall-clock use besides the kernel — socket deadlines).
const netwirePath = "pvmigrate/internal/netwire"

// servePath is the allowlisted daemon package: its HTTP handlers, SSE hub
// and pacer live on the wall side of the AwaitExternal bridge, so both
// rawgoroutine and nowallclock stand down for this one path.
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

func TestSeededRand(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewSeededRand(cfg), fixture("seededrand", "flagged"), simDrivenPath)
	linttest.Run(t, lint.NewSeededRand(cfg), fixture("seededrand", "allowed"), simDrivenPath)
}

func TestMapOrder(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewMapOrder(cfg), fixture("maporder", "flagged"), simDrivenPath)
	linttest.Run(t, lint.NewMapOrder(cfg), fixture("maporder", "allowed"), simDrivenPath)
}

func TestRawGoroutine(t *testing.T) {
	cfg := lint.DefaultConfig()
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "flagged"), simDrivenPath)
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "allowed"), kernelPath)
	// The sweep runner's worker pool is silent under its own allowlisted
	// path and fully flagged under any other sim-driven path: the
	// allowlist names the package, not the idiom.
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "sweeprunner"), sweepPath)
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "sweepelsewhere"), simDrivenPath)
	// Same contract for the netwire socket bridge, the third allowlisted
	// package: silent under its own path, fully flagged anywhere else.
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "netwirebridge"), netwirePath)
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "netwireelsewhere"), simDrivenPath)
	// And for the serve daemon's HTTP/SSE side, the fourth: its mutexes,
	// hub channels and pacer goroutine pass only under its own path.
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "serveloop"), servePath)
	linttest.Run(t, lint.NewRawGoroutine(cfg), fixture("rawgoroutine", "serveelsewhere"), simDrivenPath)
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
}

func TestWireTag(t *testing.T) {
	run := func(variant string) {
		t.Helper()
		cfg := lint.DefaultConfig()
		cfg.WireRanges = map[string][2]int{simDrivenPath: {80, 89}}
		dir := fixture("wiretag", variant)
		lock, err := filepath.Abs(filepath.Join(dir, "LOCK"))
		if err != nil {
			t.Fatal(err)
		}
		if variant == "missinglock" {
			lock = filepath.Join(filepath.Dir(lock), "NO_SUCH_LOCK")
		}
		cfg.WireLock = lock
		linttest.Run(t, lint.NewWireTag(cfg), dir, simDrivenPath)
	}
	run("flagged")     // range, duplicate, missing-encoder, missing-golden
	run("golden")      // fully conforming: silent
	run("drift")       // committed lock pins a shape the struct no longer has
	run("missinglock") // no lockfile at all
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
