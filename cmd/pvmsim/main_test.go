package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/plan"
)

// newFlags mirrors the subset of main's flag registration the
// default-guard helpers read, on a private FlagSet so tests can parse
// arbitrary command lines without touching flag.CommandLine.
func newFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("pvmsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("hosts", 2, "")
	fs.String("plan-mode", "warm", "")
	fs.Int("plan-concurrency", 0, "")
	fs.Duration("migrate-at", 0, "")
	return fs
}

func parse(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := newFlags()
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return fs
}

func TestFleetHostsDefaultGuard(t *testing.T) {
	fs := parse(t)
	if got := fleetHosts(fs, 2); got != 0 {
		t.Fatalf("defaulted -hosts leaked into fleet: got %d, want 0", got)
	}
	fs = parse(t, "-hosts", "2")
	if got := fleetHosts(fs, 2); got != 2 {
		t.Fatalf("explicit -hosts 2 ignored: got %d", got)
	}
	// Even an explicit value equal to the default counts as explicit —
	// that is the whole point of Visit over value comparison.
	fs = parse(t, "-hosts", "500")
	if got := fleetHosts(fs, 500); got != 500 {
		t.Fatalf("explicit -hosts 500: got %d", got)
	}
}

func TestPlanSettingsModeDependentDefaults(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		mode     plan.Mode
		conc     int
		wantErr  bool
		modeFlag string
		concFlag int
	}{
		{name: "warm-default", args: nil, modeFlag: "warm", concFlag: 0, mode: plan.ModeWarm, conc: 2},
		{name: "cold-default", args: []string{"-plan-mode", "cold"}, modeFlag: "cold", concFlag: 0, mode: plan.ModeCold, conc: 1},
		{name: "explicit-conc", args: []string{"-plan-concurrency", "4"}, modeFlag: "warm", concFlag: 4, mode: plan.ModeWarm, conc: 4},
		{name: "explicit-conc-cold", args: []string{"-plan-mode", "cold", "-plan-concurrency", "3"}, modeFlag: "cold", concFlag: 3, mode: plan.ModeCold, conc: 3},
		{name: "bad-mode", args: []string{"-plan-mode", "tepid"}, modeFlag: "tepid", concFlag: 0, wantErr: true},
		{name: "zero-conc-explicit", args: []string{"-plan-concurrency", "0"}, modeFlag: "warm", concFlag: 0, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := parse(t, c.args...)
			mode, conc, err := planSettings(fs, c.modeFlag, c.concFlag)
			if c.wantErr {
				if !errs.Is(err, harness.CodeBadScenario) {
					t.Fatalf("planSettings(%v) = %v/%d, %v; want a %s error", c.args, mode, conc, err, harness.CodeBadScenario)
				}
				return
			}
			if err != nil {
				t.Fatalf("planSettings(%v): %v", c.args, err)
			}
			if mode != c.mode || conc != c.conc {
				t.Fatalf("planSettings(%v) = %v/%d, want %v/%d", c.args, mode, conc, c.mode, c.conc)
			}
		})
	}
}

func TestExplicitFlagIgnoresOtherFlags(t *testing.T) {
	fs := parse(t, "-migrate-at", "8s")
	if explicitFlag(fs, "hosts") {
		t.Fatal("hosts reported explicit when only -migrate-at was set")
	}
	if !explicitFlag(fs, "migrate-at") {
		t.Fatal("migrate-at not reported explicit")
	}
	if d := fs.Lookup("migrate-at").Value.(flag.Getter).Get().(time.Duration); d != 8*time.Second {
		t.Fatalf("migrate-at parsed as %v", d)
	}
}

// TestImpossibleCountsExitTwo runs the real binary on the command lines
// that used to reach a makeslice or divide-by-zero panic, or (-placement
// bogus) to run the default policy, or (a negative -vps or -storms) to run a
// meaningless fleet: each must print an error naming the flag and exit 2,
// like any other usage error.
func TestImpossibleCountsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the pvmsim binary")
	}
	bin := filepath.Join(t.TempDir(), "pvmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct{ args, names string }{
		{"-system ft -hosts 1", "hosts"},
		{"-system ft -hosts 3 -slaves -2", "slaves"},
		{"-system pvm -hosts -1", "hosts"},
		{"-system mpvm -slaves -1", "slaves"},
		{"-system fleet -hosts -3", "hosts"},
		{"-system fleet -hosts 50 -vps 500 -shards -1", "shards"},
		{"-system fleet -hosts 40 -vps 400 -duration 1m -placement bogus", "placement"},
		{"-system fleet -hosts 40 -vps -5 -duration 1m", "vps"},
		{"-system fleet -hosts 40 -vps 400 -duration 1m -storms -3", "storms"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("pvmsim %s: %v, want exit status 2\n%s", c.args, err, stderr.String())
		}
		if msg := stderr.String(); strings.Contains(msg, "panic:") || !strings.Contains(msg, c.names) {
			t.Errorf("pvmsim %s: stderr should name %q and not panic:\n%s", c.args, c.names, msg)
		}
	}
}
