package harness

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/plan"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

func secs(t sim.Time) float64 { return t.Seconds() }

func TestPVMOptCompletes(t *testing.T) {
	out := RunPVM(Scenario{TotalBytes: 600_000, Iterations: 2})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Result == nil || out.Result.Iterations != 2 {
		t.Fatalf("result = %+v", out.Result)
	}
	if out.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestRealModeParallelEqualsSerial(t *testing.T) {
	// With real data, the distributed run converges like the serial one
	// (losses recorded each iteration and strictly positive).
	out := RunPVM(Scenario{TotalBytes: 40_000, Iterations: 5, Real: true, Seed: 3})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Result.Losses) != 5 {
		t.Fatalf("losses = %v", out.Result.Losses)
	}
	if out.Result.Losses[4] >= out.Result.Losses[0] {
		t.Fatalf("parallel training did not reduce loss: %v", out.Result.Losses)
	}
}

func TestRealModeMigrationPreservesTraining(t *testing.T) {
	// The headline transparency result: migrate a slave mid-training and
	// the numbers come out identical to the unmigrated run.
	base := RunMPVM(Scenario{TotalBytes: 150_000, Iterations: 8, Real: true, Seed: 3})
	moved := RunMPVM(Scenario{TotalBytes: 150_000, Iterations: 8, Real: true, Seed: 3,
		MigrateAt: 2 * time.Second, MigrateTo: 0})
	if base.Err != nil || moved.Err != nil {
		t.Fatalf("errs: %v, %v", base.Err, moved.Err)
	}
	if len(moved.Records) != 1 {
		t.Fatalf("migrations = %d", len(moved.Records))
	}
	if len(base.Result.Losses) != len(moved.Result.Losses) {
		t.Fatalf("iteration counts differ")
	}
	for i := range base.Result.Losses {
		if base.Result.Losses[i] != moved.Result.Losses[i] {
			t.Fatalf("iter %d: loss %g (no migration) vs %g (migrated) — transparency broken",
				i, base.Result.Losses[i], moved.Result.Losses[i])
		}
	}
	if moved.Elapsed <= base.Elapsed {
		t.Errorf("migration should cost wall-clock time: %v vs %v", moved.Elapsed, base.Elapsed)
	}
}

func TestRealModeADMWithdrawalPreservesGradients(t *testing.T) {
	// ADM's equivalent: withdraw a slave mid-training; every exemplar still
	// contributes exactly once per iteration, so losses match the quiet run.
	base := RunADM(Scenario{TotalBytes: 150_000, Iterations: 8, Real: true, Seed: 3})
	moved := RunADM(Scenario{TotalBytes: 150_000, Iterations: 8, Real: true, Seed: 3,
		MigrateAt: 2 * time.Second})
	if base.Err != nil || moved.Err != nil {
		t.Fatalf("errs: %v, %v", base.Err, moved.Err)
	}
	if len(moved.Records) != 1 {
		t.Fatalf("withdrawals = %d", len(moved.Records))
	}
	if len(base.Result.Losses) != len(moved.Result.Losses) {
		t.Fatalf("iteration counts differ: %v vs %v", base.Result.Losses, moved.Result.Losses)
	}
	for i := range base.Result.Losses {
		d := math.Abs(base.Result.Losses[i] - moved.Result.Losses[i])
		if d > 1e-9*(1+math.Abs(base.Result.Losses[i])) {
			t.Fatalf("iter %d: loss %g vs %g — redistribution lost or duplicated exemplars",
				i, base.Result.Losses[i], moved.Result.Losses[i])
		}
	}
}

func TestUPVMRealModeTraining(t *testing.T) {
	out := RunUPVM(Scenario{TotalBytes: 40_000, Iterations: 4, Real: true, Seed: 5})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Result.Losses) != 4 || out.Result.Losses[3] >= out.Result.Losses[0] {
		t.Fatalf("losses = %v", out.Result.Losses)
	}
}

func TestOwnerReclaimEndToEnd(t *testing.T) {
	out, decisions := OwnerReclaimScenario(Scenario{TotalBytes: 2_000_000, Iterations: 6}, 1, 10*time.Second)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Records) != 1 {
		t.Fatalf("records = %d", len(out.Records))
	}
	if out.Records[0].From != 1 || out.Records[0].To != 0 {
		t.Fatalf("record = %+v", out.Records[0])
	}
	if len(decisions) != 1 || decisions[0].Moved != 1 {
		t.Fatalf("decisions = %+v", decisions)
	}
	if out.Result == nil || out.Result.Iterations != 6 {
		t.Fatal("application did not finish after evacuation")
	}
}

func TestRawTCPScalesLinearly(t *testing.T) {
	small := secs(RawTCP(300_000))
	large := secs(RawTCP(3_000_000))
	ratio := large / small
	if ratio < 9 || ratio > 11 {
		t.Fatalf("raw TCP scaling ratio = %.1f, want ~10", ratio)
	}
}

func TestDistributedMatchesSerialReferenceBitwise(t *testing.T) {
	// The strongest end-to-end equivalence check: every distributed variant
	// must produce the exact floating-point loss trajectory of the serial
	// reference — the message-passing, migration and checkpoint/rollback
	// layers are invisible to the numerics.
	sc := Scenario{TotalBytes: 120_000, Iterations: 6, Real: true, Seed: 9}
	scd := sc.withDefaults()
	ref := opt.ReferenceTrajectory(scd.params(), scd.Slaves)

	// The FT rows run ft.Job, the third driver of the Opt cores, on the
	// survival acceptance scenario: fault-free, and rolled back three times.
	ftc := survivalBase()
	ftRef := opt.ReferenceTrajectory(opt.Params{TotalBytes: ftc.TotalBytes,
		Iterations: ftc.Iterations, Seed: ftc.Seed, Real: true}, ftc.Slaves)
	ftQuiet := Survival(ftc)
	ftc.Crashes = 3
	ftc.CrashFrom = sim.Time(float64(ftQuiet.Elapsed) * 0.2)
	ftc.CrashTo = sim.Time(float64(ftQuiet.Elapsed) * 0.7)
	ftCrashed := Survival(ftc)
	if len(ftCrashed.Recoveries) == 0 {
		t.Errorf("FT+3 crashes: no rollback happened")
	}

	type run struct {
		res *opt.Result
		err error
		ref []float64
	}
	of := func(out *Outcome) run { return run{out.Result, out.Err, ref} }
	runs := map[string]run{
		"PVM":  of(RunPVM(sc)),
		"MPVM": of(RunMPVM(sc)),
		"UPVM": of(RunUPVM(sc)),
		"ADM":  of(RunADM(sc)),
		"MPVM+migration": of(RunMPVM(Scenario{TotalBytes: 120_000, Iterations: 6, Real: true, Seed: 9,
			MigrateAt: 1500 * time.Millisecond, MigrateTo: 0})),
		"FT":           {ftQuiet.Result, ftQuiet.Err, ftRef},
		"FT+3 crashes": {ftCrashed.Result, ftCrashed.Err, ftRef},
	}
	for name, r := range runs {
		if r.err != nil {
			t.Errorf("%s: %v", name, r.err)
			continue
		}
		if len(r.res.Losses) != len(r.ref) {
			t.Errorf("%s: %d iterations vs reference %d", name, len(r.res.Losses), len(r.ref))
			continue
		}
		for i := range r.ref {
			if r.res.Losses[i] != r.ref[i] {
				t.Errorf("%s: iteration %d loss %g != reference %g",
					name, i, r.res.Losses[i], r.ref[i])
				break
			}
		}
	}
}

func TestUPVMMultipleULPsPerNode(t *testing.T) {
	// Paper §4.2.1: "if an application is divided into more than one VP per
	// node, an application will run faster since UPVM optimizes local
	// communication." Four slaves on two hosts: under plain PVM they are
	// four processes (loopback pvmd communication with the co-located
	// master); under UPVM two of them share the master's process and use
	// the zero-copy hand-off.
	sc := Scenario{TotalBytes: 600_000, Iterations: 2, Slaves: 4}
	pvmOut := RunPVM(sc)
	upvmOut := RunUPVM(sc)
	if pvmOut.Err != nil || upvmOut.Err != nil {
		t.Fatalf("errs: %v, %v", pvmOut.Err, upvmOut.Err)
	}
	p, u := pvmOut.Elapsed.Seconds(), upvmOut.Elapsed.Seconds()
	t.Logf("4 slaves on 2 hosts: PVM %.2f s, UPVM %.2f s", p, u)
	if u >= p {
		t.Fatalf("UPVM (%.2f) not faster than PVM (%.2f) with multiple VPs per node", u, p)
	}
}

// TestTraceRunsTheScenarioRunRuns: attaching a tracer must not change which
// scenario runs. The traced runners used to be hand copies of the plain
// ones and had silently dropped BackgroundLoad/CrossTraffic (MPVM) and the
// Scenario.UPVM cost model (UPVM).
func TestTraceRunsTheScenarioRunRuns(t *testing.T) {
	for _, c := range []struct {
		name  string
		run   func(Scenario) *Outcome
		trace func(Scenario) (*trace.Log, *Outcome)
		sc    Scenario
	}{
		{"mpvm/background-load", RunMPVM, TraceMPVMMigration, Scenario{
			TotalBytes: 4_200_000, Iterations: 10, MigrateAt: 8 * time.Second,
			BackgroundLoad: map[int]int{0: 1},
		}},
		{"upvm/tuned-cost-model", RunUPVM, TraceUPVMMigration, Scenario{
			TotalBytes: 600_000, Iterations: 6, MigrateAt: 2 * time.Second,
			UPVM: &upvm.Config{XferBps: 950e3, AcceptBps: 12e6}, // Extension D
		}},
	} {
		plain := c.run(c.sc)
		log, traced := c.trace(c.sc)
		if plain.Err != nil || traced.Err != nil {
			t.Fatalf("%s: errs %v, %v", c.name, plain.Err, traced.Err)
		}
		if log.Len() == 0 || len(plain.Records) != 1 {
			t.Fatalf("%s: %d trace events, %d records", c.name, log.Len(), len(plain.Records))
		}
		if traced.Elapsed != plain.Elapsed {
			t.Errorf("%s: traced run took %v, untraced %v", c.name, traced.Elapsed, plain.Elapsed)
		}
		if !reflect.DeepEqual(traced.Records, plain.Records) {
			t.Errorf("%s: records differ:\ntraced   %+v\nuntraced %+v", c.name, traced.Records, plain.Records)
		}
	}
}

// TestImpossibleCountsAreErrors: a count or name that cannot describe a run
// (it arrives from a command line) comes back as a CodeBadScenario error from
// every runner, not as a makeslice or divide-by-zero panic, nor as a run of
// some default in its place.
func TestImpossibleCountsAreErrors(t *testing.T) {
	outcome := func(o *Outcome) error { return o.Err }
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"pvm -hosts -1", func() error { return outcome(RunPVM(Scenario{Hosts: -1})) }},
		{"mpvm -slaves -1", func() error { return outcome(RunMPVM(Scenario{Slaves: -1})) }},
		{"upvm -slaves -3", func() error { return outcome(RunUPVM(Scenario{Slaves: -3})) }},
		{"adm -hosts -2", func() error { return outcome(RunADM(Scenario{Hosts: -2})) }},
		{"mpvm trace -hosts -1", func() error { _, o := TraceMPVMMigration(Scenario{Hosts: -1}); return o.Err }},
		{"owner-reclaim -slaves -1", func() error {
			o, _ := OwnerReclaimScenario(Scenario{Slaves: -1}, 1, time.Second)
			return o.Err
		}},
		{"figure 2 -hosts -1", func() error { _, err := Figure2Layout(Scenario{Hosts: -1}); return err }},
		{"ft -hosts 1", func() error { return Survival(SurvivalConfig{Hosts: 1}).Err }},
		{"ft -hosts 3 -slaves -2", func() error { return Survival(SurvivalConfig{Hosts: 3, Slaves: -2}).Err }},
		{"fleet -hosts -3", func() error { return RunFleet(FleetScenario{Hosts: -3}).Err }},
		{"fleet -shards -1", func() error { return RunFleet(FleetScenario{Hosts: 50, VPs: 500, Shards: -1}).Err }},
		{"fleet -duration -1s", func() error { return RunFleet(FleetScenario{Hosts: 50, VPs: 500, Duration: -time.Second}).Err }},
		{"fleet -vps -5", func() error {
			return RunFleet(FleetScenario{Hosts: 40, VPs: -5, Duration: time.Minute}).Err
		}},
		{"fleet -storms -3", func() error {
			return RunFleet(FleetScenario{Hosts: 40, VPs: 400, Duration: time.Minute, Storms: -3}).Err
		}},
		{"fleet -placement bogus", func() error {
			return RunFleet(FleetScenario{Hosts: 40, VPs: 400, Duration: time.Minute, Placement: "bogus"}).Err
		}},
	} {
		if err := c.run(); !errs.Is(err, CodeBadScenario) {
			t.Errorf("%s: got %v, want a %s error", c.name, err, CodeBadScenario)
		}
	}
}

// TestRunnersLeaveNoGoroutines: a runner closes its kernel, so the procs a
// finished run leaves parked (daemons, skeletons, the GS) are unwound and
// their coroutines go back to sim's worker pool. Each runner's first call
// may grow the pool to the run's peak of live procs; after that the
// process's goroutine count does not move however often it runs.
func TestRunnersLeaveNoGoroutines(t *testing.T) {
	sc := Scenario{TotalBytes: 600_000, Iterations: 4, MigrateAt: 2 * time.Second, MigrateTo: 0}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"RunPVM", func() error { return RunPVM(sc).Err }},
		{"RunMPVM", func() error { return RunMPVM(sc).Err }},
		{"RunUPVM", func() error { return RunUPVM(sc).Err }},
		{"RunADM", func() error { return RunADM(sc).Err }},
		{"RunMPVMPlan", func() error { o, _ := RunMPVMPlan(sc, 1, plan.ModeCold, 1); return o.Err }},
		{"RawTCP", func() error { RawTCP(100_000); return nil }},
		{"OwnerReclaimScenario", func() error { o, _ := OwnerReclaimScenario(sc, 1, time.Second); return o.Err }},
		{"Survival", func() error { return Survival(SurvivalConfig{Crashes: 1, Seed: 3}).Err }},
		{"RunFleet", func() error { return RunFleet(FleetScenario{Hosts: 50, VPs: 500}).Err }},
		{"ExtensionCheckpoint", func() error {
			if s := ExtensionCheckpoint().String(); strings.Contains(s, "failed") {
				return errors.New(s)
			}
			return nil
		}},
	} {
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		base := runtime.NumGoroutine()
		for i := 0; i < 2; i++ {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%s: %d goroutines after the first run, %d after two more", c.name, base, got)
		}
	}
}
