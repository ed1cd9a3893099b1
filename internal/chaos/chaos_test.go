package chaos

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sweep"
)

// seedFlag reproduces one explored schedule: go test ./internal/chaos
// -run TestSeed -seed N [-scenario name]. A sweep failure names the exact
// (scenario, seed) pair to pass here. seedsFlag/parallelFlag size the
// TestSweep exploration, so the CI smoke job and a local deep sweep share
// one code path: go test ./internal/chaos -run TestSweep -seeds 1000
// -parallel 8.
var (
	seedFlag     = flag.Int64("seed", -1, "re-run one chaos seed across the scenarios (or -scenario)")
	scenarioFlag = flag.String("scenario", "", "restrict -seed to one scenario by name")
	seedsFlag    = flag.Int("seeds", 0, "TestSweep seed count (default 200, or 25 with -short)")
	parallelFlag = flag.Int("parallel", 0, "sweep worker threads (default GOMAXPROCS, 1 = serial)")
)

// sweepSeeds resolves the -seeds flag against the -short default.
func sweepSeeds() int {
	if *seedsFlag > 0 {
		return *seedsFlag
	}
	if testing.Short() {
		return 25
	}
	return 200
}

// sweepConfig is the audited configuration: real Opt math so the final loss
// fingerprints every gradient application bit-for-bit.
func sweepConfig(seed uint64) Config {
	return Config{Seed: seed, Real: true}
}

func audit(t *testing.T, sc Scenario, seed uint64, determinism bool) *Result {
	t.Helper()
	cfg := sweepConfig(seed)
	res := Run(sc, cfg)
	if err := CheckAll(res); err != nil {
		t.Errorf("%v\n  faults: %+v", err, res.Faults)
		return res
	}
	if determinism {
		if _, err := CheckDeterminism(sc, cfg, res); err != nil {
			t.Error(err)
		}
	}
	return res
}

// TestSmoke is the CI gate: one seed through every scenario with the full
// audit, including the determinism double-run.
func TestSmoke(t *testing.T) {
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) { audit(t, sc, 1, true) })
	}
}

// TestSeed reproduces a single schedule by seed (no-op without -seed N).
func TestSeed(t *testing.T) {
	if *seedFlag < 0 {
		t.Skip("pass -seed N to reproduce one schedule")
	}
	for _, sc := range Scenarios {
		if *scenarioFlag != "" && sc.Name != *scenarioFlag {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := audit(t, sc, uint64(*seedFlag), true)
			t.Logf("seed %d: done=%v iters=%d loss=%g finished=%v faults=%+v",
				res.Seed, res.Done, res.Iterations, res.FinalLoss, res.FinishedAt, res.Faults)
			for _, rec := range res.Mgr.Records() {
				t.Logf("recovery: %+v", rec)
			}
			for _, mig := range res.Sys.Records() {
				t.Logf("migration: %+v", mig)
			}
		})
	}
}

// TestSweep is the interleaving search: many seeds per scenario (-seeds),
// sharded across host threads (-parallel), each audited by every checker;
// the determinism double-run samples every 8th seed (the fingerprint
// covers the full schedule, so a nondeterminism bug has many chances to
// trip it).
func TestSweep(t *testing.T) {
	opts := SweepOptions{
		Seeds:            sweepSeeds(),
		Workers:          *parallelFlag,
		DeterminismEvery: 8,
		Config:           sweepConfig,
	}
	base := runtime.NumGoroutine()
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, rep := range Violations(Sweep(sc, opts)) {
				t.Errorf("%s\n  faults: %+v\n  reproduce with: %s",
					rep.Violation, rep.Faults, rep.ReproCommand())
			}
		})
	}
	checkNoLeakedProcs(t, base, sweep.Workers(opts.Workers))
}

// maxLiveProcs bounds the procs one chaos kernel has live at a time (five
// hosts' daemons, the ft job, the GS, the overlays, in-flight migrations:
// about 50 today).
const maxLiveProcs = 128

// checkNoLeakedProcs is the goroutine leak gate: Run closes its kernel, so
// what a sweep leaves behind is sim's worker pool, which never holds more
// coroutines than were live at once — one kernel's worth per sweep worker,
// however many seeds ran. A run that left its parked procs behind would
// add a dozen goroutines per seed.
func checkNoLeakedProcs(t *testing.T, base, workers int) {
	t.Helper()
	if got, bound := runtime.NumGoroutine(), base+workers*(1+maxLiveProcs); got > bound {
		t.Errorf("%d goroutines after the sweep, %d before it: more than the %d that %d workers' kernels can pool",
			got, base, bound-base, workers)
	}
}

// TestSweepLeavesNoGoroutines runs a 16-seed sweep of every scenario on two
// workers: 96 runs, which without Kernel.Close leave 1,200 goroutines
// parked.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	const workers = 2
	base := runtime.NumGoroutine()
	for _, sc := range Scenarios {
		Sweep(sc, SweepOptions{Seeds: 16, Workers: workers, Config: sweepConfig})
	}
	checkNoLeakedProcs(t, base, workers)
}

// TestParallelSweepMatchesSerial pins the parallel runner's determinism
// contract: sharding seeded runs across host threads must change
// wall-clock only. The three scenarios run over 32 seeds serially and on
// 4 workers; every per-seed fingerprint and checker verdict must match
// bit-for-bit.
func TestParallelSweepMatchesSerial(t *testing.T) {
	const seeds = 32
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			serial := Sweep(sc, SweepOptions{Seeds: seeds, Workers: 1, Config: sweepConfig})
			par := Sweep(sc, SweepOptions{Seeds: seeds, Workers: 4, Config: sweepConfig})
			for i := range serial {
				if par[i].Fingerprint != serial[i].Fingerprint {
					t.Errorf("seed %d: parallel fingerprint %+v != serial %+v",
						i, par[i].Fingerprint, serial[i].Fingerprint)
				}
				if par[i].Violation != serial[i].Violation {
					t.Errorf("seed %d: parallel verdict %q != serial %q",
						i, par[i].Violation, serial[i].Violation)
				}
			}
		})
	}
}

// TestSplitBrainReapsOrphansAndReadmits pins the acceptance shape of the
// split-brain scenario across a seed range: when the partition heals, any
// fenced incarnation still running on the rejoined host is reaped, the host
// is re-admitted (not dead at quiescence), and the rejoin itself triggers
// no second respawn wave.
func TestSplitBrainReapsOrphansAndReadmits(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	sawOrphanFence := false
	for seed := 0; seed < seeds; seed++ {
		res := audit(t, SplitBrainRejoin, uint64(seed), false)
		if t.Failed() {
			t.Fatalf("seed %d failed audit", seed)
		}
		if len(res.Sched.DeadHosts()) != 0 {
			t.Fatalf("seed %d: host not re-admitted after heal: dead=%v", seed, res.Sched.DeadHosts())
		}
		// At most one recovery record per partitioned host: the rejoin must
		// not have respawned anything on top of the original recovery.
		perHost := map[int]int{}
		for _, rec := range res.Mgr.Records() {
			perHost[rec.Host]++
			if perHost[rec.Host] > 1 {
				t.Fatalf("seed %d: host%d recovered twice (spurious respawn after rejoin): %+v",
					seed, rec.Host, res.Mgr.Records())
			}
		}
		for _, stage := range res.Log.Stages() {
			if stage == "ft:orphan" {
				sawOrphanFence = true
			}
		}
	}
	if !sawOrphanFence {
		t.Error("no seed in the range ever fenced a live orphan — scenario not exercising split-brain")
	}
}

// TestADMRedistributionRacesMigration pins the acceptance shape of the ADM
// scenario across a seed range: the overlay's data redistribution must
// actually overlap the reclaim evacuation's VP migrations in some seeds
// (both mechanisms fire in the same run), and training results must be
// unaffected — the overlay finishes every iteration with the same loss no
// matter where the withdraw lands in the migration window.
func TestADMRedistributionRacesMigration(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 8
	}
	sawRace := false
	var loss float64
	for seed := 0; seed < seeds; seed++ {
		res := audit(t, ADMRedistributionRacingMigration, uint64(seed), false)
		if t.Failed() {
			t.Fatalf("seed %d failed audit", seed)
		}
		if res.ADMMoves > 0 && len(res.Sys.Records()) > 0 {
			sawRace = true
		}
		if seed == 0 {
			loss = res.ADMLoss
		} else if res.ADMLoss != loss {
			t.Fatalf("seed %d: ADM final loss %g != %g — redistribution timing changed training results",
				seed, res.ADMLoss, loss)
		}
	}
	if !sawRace {
		t.Error("no seed in the range ever ran a redistribution concurrent with a migration")
	}
}

// TestCrashMidPrecopySweepsAbortArc pins the acceptance shape of the warm
// scenario across a seed range: evacuations run the iterative-precopy
// protocol (every completed record is warm with at least one round), the
// crash actually disrupts some schedules (record counts vary across the
// sweep), and the accounting invariant holds everywhere — an aborted
// precopy contributes zero records, a completed one exactly one, never a
// double-count no matter where the crash lands in the precopy arc.
func TestCrashMidPrecopySweepsAbortArc(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	minRecs, maxRecs := 1<<30, -1
	for seed := 0; seed < seeds; seed++ {
		res := audit(t, CrashMidPrecopy, uint64(seed), false)
		if t.Failed() {
			t.Fatalf("seed %d failed audit", seed)
		}
		recs := res.Sys.Records()
		seen := map[string]bool{}
		for _, rec := range recs {
			if rec.Mode != core.MigrationWarm {
				t.Fatalf("seed %d: cold record in a warm-by-default run: %+v", seed, rec)
			}
			if rec.Rounds < 1 || rec.Frozen == 0 || rec.Downtime() <= 0 {
				t.Fatalf("seed %d: warm record missing precopy accounting: %+v", seed, rec)
			}
			key := fmt.Sprintf("%v@%d", rec.VP, rec.Start)
			if seen[key] {
				t.Fatalf("seed %d: migration %s recorded twice: %+v", seed, key, recs)
			}
			seen[key] = true
		}
		if len(recs) < minRecs {
			minRecs = len(recs)
		}
		if len(recs) > maxRecs {
			maxRecs = len(recs)
		}
	}
	if maxRecs == 0 {
		t.Error("no seed in the range ever completed a warm evacuation migration")
	}
	if minRecs == maxRecs {
		t.Errorf("every seed completed exactly %d migrations — the crash never disrupted the precopy arc", maxRecs)
	}
}

// TestULPHandoffPartitionAbortsAndRecovers pins the acceptance shape of
// the UPVM scenario across a seed range: hand-offs issued into the
// partition must abort via the bounded flush barrier in some seeds,
// hand-offs must complete in some seeds (including post-heal retries in
// the same run as an abort), every completed hand-off is recorded exactly
// once, and — the liveness point of the roadmap item — no schedule ever
// strands a ULP: the overlay finishes all its ULPs in every seed (audited
// by the liveness checker).
func TestULPHandoffPartitionAbortsAndRecovers(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	sawAbort, sawMove, sawAbortThenRecover := false, false, false
	for seed := 0; seed < seeds; seed++ {
		res := audit(t, ULPHandoffUnderPartition, uint64(seed), false)
		if t.Failed() {
			t.Fatalf("seed %d failed audit", seed)
		}
		if res.ULPAborts > 0 {
			sawAbort = true
		}
		if res.ULPMoved > 0 {
			sawMove = true
		}
		if res.ULPAborts > 0 && res.ULPMoved > 0 {
			sawAbortThenRecover = true
		}
		seen := map[string]bool{}
		for _, rec := range res.ULPSys.Records() {
			key := fmt.Sprintf("%v@%d", rec.VP, rec.Start)
			if seen[key] {
				t.Fatalf("seed %d: ULP hand-off %s recorded twice (accept not idempotent): %+v",
					seed, key, res.ULPSys.Records())
			}
			seen[key] = true
		}
	}
	if !sawAbort {
		t.Error("no seed in the range ever aborted a flush barrier — scenario not reaching the partition window")
	}
	if !sawMove {
		t.Error("no seed in the range ever completed a ULP hand-off")
	}
	if !sawAbortThenRecover {
		t.Error("no seed both aborted and completed a hand-off — the post-heal retry path went unexercised")
	}
}

// TestTieBreakChangesSchedules sanity-checks the explorer itself: different
// seeds must actually produce different schedules (otherwise the sweep is
// 200 copies of one interleaving).
func TestTieBreakChangesSchedules(t *testing.T) {
	base := Run(ReclaimDuringRollback, sweepConfig(1)).Fingerprint()
	distinct := 0
	for seed := uint64(2); seed < 10; seed++ {
		if Run(ReclaimDuringRollback, sweepConfig(seed)).Fingerprint() != base {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("8 different seeds produced the same schedule fingerprint")
	}
}

var _ = core.NoTID
