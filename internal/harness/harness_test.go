package harness

import (
	"math"
	"reflect"
	"runtime"
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

func TestTable1_PVMvsMPVMQuietCase(t *testing.T) {
	// Paper Table 1: 9 MB training set, PVM 198 s, MPVM 198 s — identical.
	sc := Scenario{TotalBytes: 9_000_000, Iterations: 6}
	pvmOut := RunPVM(sc)
	mpvmOut := RunMPVM(sc)
	if pvmOut.Err != nil || mpvmOut.Err != nil {
		t.Fatalf("errs: %v, %v", pvmOut.Err, mpvmOut.Err)
	}
	p, m := secs(pvmOut.Elapsed), secs(mpvmOut.Elapsed)
	t.Logf("Table 1: PVM %.1f s, MPVM %.1f s (paper: 198, 198)", p, m)
	if p < 170 || p > 220 {
		t.Errorf("PVM quiet case = %.1f s, paper 198 s", p)
	}
	// MPVM's overhead is masked for this application: within 2%.
	if rel := math.Abs(m-p) / p; rel > 0.02 {
		t.Errorf("MPVM overhead = %.1f%%, paper ~0%%", rel*100)
	}
}

func TestTable3_PVMvsUPVMQuietCase(t *testing.T) {
	// Paper Table 3: 0.6 MB, PVM 4.92 s vs UPVM 4.75 s (UPVM slightly
	// faster thanks to local hand-off).
	sc := Scenario{TotalBytes: 600_000, Iterations: 2}
	pvmOut := RunPVM(sc)
	upvmOut := RunUPVM(sc)
	if pvmOut.Err != nil || upvmOut.Err != nil {
		t.Fatalf("errs: %v, %v", pvmOut.Err, upvmOut.Err)
	}
	p, u := secs(pvmOut.Elapsed), secs(upvmOut.Elapsed)
	t.Logf("Table 3: PVM %.2f s, UPVM %.2f s (paper: 4.92, 4.75)", p, u)
	if p < 4.2 || p > 5.6 {
		t.Errorf("PVM small case = %.2f s, paper 4.92 s", p)
	}
	if u >= p {
		t.Errorf("UPVM (%.2f) not faster than PVM (%.2f); paper has UPVM ahead", u, p)
	}
	if (p-u)/p > 0.15 {
		t.Errorf("UPVM advantage %.1f%% implausibly large (paper ~3%%)", (p-u)/p*100)
	}
}

func TestTable5_ADMOverhead(t *testing.T) {
	// Paper Table 5: PVM_opt 188 s vs ADMopt 232 s (~23% slower).
	sc := Scenario{TotalBytes: 9_000_000, Iterations: 6}
	pvmOut := RunPVM(sc)
	admOut := RunADM(sc)
	if pvmOut.Err != nil || admOut.Err != nil {
		t.Fatalf("errs: %v, %v", pvmOut.Err, admOut.Err)
	}
	p, a := secs(pvmOut.Elapsed), secs(admOut.Elapsed)
	ratio := a / p
	t.Logf("Table 5: PVM %.1f s, ADM %.1f s, ratio %.2f (paper: 188, 232, 1.23)", p, a, ratio)
	if ratio < 1.15 || ratio > 1.33 {
		t.Errorf("ADM overhead ratio = %.2f, paper 1.23", ratio)
	}
}

func TestTable2_MPVMMigrationSweep(t *testing.T) {
	// Paper Table 2 rows: data size (MB), raw TCP, obtrusiveness, migration
	// time. Slaves hold half the listed size.
	rows := []struct {
		mb       float64
		rawTCP   float64
		obtr     float64
		migrCost float64
	}{
		{0.6, 0.27, 1.17, 1.39},
		{4.2, 1.82, 2.93, 3.15},
		{9.8, 4.42, 5.92, 6.18},
		{20.8, 10.00, 12.52, 13.10},
	}
	for _, row := range rows {
		total := int(row.mb * 1e6)
		raw := secs(RawTCP(total / 2))
		if math.Abs(raw-row.rawTCP) > 0.15*row.rawTCP+0.05 {
			t.Errorf("%.1f MB: raw TCP %.2f s, paper %.2f s", row.mb, raw, row.rawTCP)
		}
		// Migrate after the initial data distribution has drained off the
		// shared Ethernet (as in the paper, which measured migrations of a
		// running, steady-state application).
		migrateAt := sim.FromSeconds(3 + float64(total/2)/1.0e6)
		out := RunMPVM(Scenario{
			TotalBytes: total,
			Iterations: 8,
			MigrateAt:  migrateAt,
			MigrateTo:  0,
		})
		if out.Err != nil {
			t.Fatalf("%.1f MB: %v", row.mb, out.Err)
		}
		if len(out.Records) != 1 {
			t.Fatalf("%.1f MB: %d migrations", row.mb, len(out.Records))
		}
		r := out.Records[0]
		obtr, cost := secs(r.Obtrusiveness()), secs(r.Cost())
		t.Logf("Table 2 %.1f MB: raw %.2f obtr %.2f cost %.2f (paper %.2f %.2f %.2f)",
			row.mb, raw, obtr, cost, row.rawTCP, row.obtr, row.migrCost)
		if math.Abs(obtr-row.obtr) > 0.25*row.obtr+0.3 {
			t.Errorf("%.1f MB: obtrusiveness %.2f s, paper %.2f s", row.mb, obtr, row.obtr)
		}
		if cost <= obtr {
			t.Errorf("%.1f MB: cost %.2f ≤ obtrusiveness %.2f", row.mb, cost, obtr)
		}
		if math.Abs(cost-row.migrCost) > 0.25*row.migrCost+0.4 {
			t.Errorf("%.1f MB: migration cost %.2f s, paper %.2f s", row.mb, cost, row.migrCost)
		}
	}
}

func TestTable4_UPVMMigration(t *testing.T) {
	// Paper Table 4: 0.6 MB, obtrusiveness 1.67 s, migration 6.88 s.
	out := RunUPVM(Scenario{
		TotalBytes: 600_000,
		Iterations: 6,
		MigrateAt:  2 * time.Second,
		MigrateTo:  0,
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Records) != 1 {
		t.Fatalf("%d migrations", len(out.Records))
	}
	r := out.Records[0]
	obtr, cost := secs(r.Obtrusiveness()), secs(r.Cost())
	t.Logf("Table 4: obtr %.2f s, cost %.2f s (paper 1.67, 6.88)", obtr, cost)
	if obtr < 1.1 || obtr > 2.3 {
		t.Errorf("obtrusiveness = %.2f s, paper 1.67 s", obtr)
	}
	if cost < 5.5 || cost > 8.5 {
		t.Errorf("migration cost = %.2f s, paper 6.88 s", cost)
	}
}

func TestTable6_ADMMigrationSweep(t *testing.T) {
	rows := []struct {
		mb   float64
		cost float64
	}{
		{0.6, 1.75},
		{4.2, 4.42},
		{9.8, 9.96},
		{20.8, 21.69},
	}
	for _, row := range rows {
		out := RunADM(Scenario{
			TotalBytes: int(row.mb * 1e6),
			Iterations: 8,
			MigrateAt:  sim.FromSeconds(3 + row.mb/2/1.0),
		})
		if out.Err != nil {
			t.Fatalf("%.1f MB: %v", row.mb, out.Err)
		}
		if len(out.Records) != 1 {
			t.Fatalf("%.1f MB: %d withdrawal records", row.mb, len(out.Records))
		}
		r := out.Records[0]
		cost := secs(r.Cost())
		t.Logf("Table 6 %.1f MB: cost %.2f s (paper %.2f)", row.mb, cost, row.cost)
		if r.Obtrusiveness() != r.Cost() {
			t.Errorf("ADM obtrusiveness must equal migration cost")
		}
		if math.Abs(cost-row.cost) > 0.35*row.cost+0.5 {
			t.Errorf("%.1f MB: ADM cost %.2f s, paper %.2f s", row.mb, cost, row.cost)
		}
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
		{"RunServing", func() error { return RunServing(servingScenario(1)).Err }},
		{"RunFleet", func() error { return RunFleet(FleetScenario{Hosts: 50, VPs: 500}).Err }},
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
