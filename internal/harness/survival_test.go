package harness

import (
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

// survivalBase is the acceptance scenario: a 16-VP Opt run (master + 15
// slaves) over 8 hosts with real training data.
func survivalBase() SurvivalConfig {
	return SurvivalConfig{
		Hosts:      8,
		Slaves:     15,
		TotalBytes: 120_000,
		Iterations: 12,
		Seed:       42,
		Real:       true,
	}
}

// TestSurvivalSurvivesThreeCrashes is the subsystem's acceptance test: the
// run survives k=3 injected host crashes at a fixed seed, produces exactly
// the training output of a fault-free run, and loses at most one checkpoint
// interval of work per crash.
func TestSurvivalSurvivesThreeCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("survival experiment is long in short mode")
	}
	baseline := Survival(survivalBase())
	if baseline.Err != nil {
		t.Fatalf("fault-free baseline failed: %v", baseline.Err)
	}
	if len(baseline.Crashes) != 0 || len(baseline.Recoveries) != 0 {
		t.Fatalf("baseline saw faults: %v %v", baseline.Crashes, baseline.Recoveries)
	}

	cfg := survivalBase()
	cfg.Crashes = 3
	cfg.CrashFrom = sim.Time(float64(baseline.Elapsed) * 0.2)
	cfg.CrashTo = sim.Time(float64(baseline.Elapsed) * 0.7)
	out := Survival(cfg)
	if out.Err != nil {
		t.Fatalf("survival run failed: %v", out.Err)
	}
	if len(out.Crashes) != 3 {
		t.Fatalf("expected 3 injected crashes, got %v", out.Crashes)
	}

	// Correct training output: deterministic replay from checkpoints means
	// the final loss matches the fault-free run exactly.
	if got, want := out.Result.FinalLoss, baseline.Result.FinalLoss; got != want {
		t.Errorf("final loss diverged after recovery: got %v, want %v", got, want)
	}
	if got, want := out.Result.Iterations, cfg.Iterations; got != want {
		t.Errorf("iterations: got %d, want %d", got, want)
	}
	if len(out.Result.Losses) != len(baseline.Result.Losses) {
		t.Errorf("loss history length: got %d, want %d",
			len(out.Result.Losses), len(baseline.Result.Losses))
	}

	// Every crash that hit job VPs was recovered, losing at most one
	// checkpoint interval of work.
	if len(out.Recoveries) == 0 {
		t.Fatal("no recoveries recorded despite 3 crashes on slave hosts")
	}
	const every = 2 // ft's default checkpoint period
	for _, r := range out.Recoveries {
		if r.RecoveredAt == 0 {
			t.Errorf("host%d recovery never completed: %+v", r.Host, r)
			continue
		}
		if r.LostIterations > every {
			t.Errorf("host%d lost %d iterations, more than the checkpoint interval %d",
				r.Host, r.LostIterations, every)
		}
		if r.RespawnedVPs <= 0 {
			t.Errorf("host%d recovery respawned no VPs", r.Host)
		}
		if r.DetectedAt < r.CrashedAt || r.RecoveredAt < r.DetectedAt {
			t.Errorf("host%d recovery timeline out of order: %+v", r.Host, r)
		}
	}

	// Recovery-time distribution (the experiment's headline metric).
	if out.RecoverySecs.N() != len(out.Recoveries) {
		t.Fatalf("recovery series has %d samples for %d recoveries",
			out.RecoverySecs.N(), len(out.Recoveries))
	}
	mean, p95 := out.RecoverySecs.Mean(), out.RecoverySecs.Percentile(95)
	if mean <= 0 || p95 < mean {
		t.Errorf("implausible recovery stats: mean=%.3fs p95=%.3fs", mean, p95)
	}
	// Detection is bounded by heartbeat timeout + one watch period + a beat.
	maxDetect := sim.Seconds(2*time.Second + 2*500*time.Millisecond)
	if worst := out.DetectSecs.Max(); worst > maxDetect+0.1 {
		t.Errorf("detection latency %.3fs exceeds heartbeat bound %.3fs", worst, maxDetect)
	}
	t.Logf("survived k=3: elapsed %v (baseline %v), %d checkpoints, recovery mean %.2fs p95 %.2fs, detect mean %.2fs",
		out.Elapsed, baseline.Elapsed, out.Checkpoints, mean, p95, out.DetectSecs.Mean())
}

// TestSurvivalDeterministic re-runs the same seeded fault plan and expects
// identical crash schedules and identical training output.
func TestSurvivalDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("survival experiment is long in short mode")
	}
	cfg := survivalBase()
	cfg.Iterations = 6
	cfg.Crashes = 2
	cfg.CrashFrom = 4 * time.Second
	cfg.CrashTo = 12 * time.Second
	a := Survival(cfg)
	b := Survival(cfg)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("runs failed: %v / %v", a.Err, b.Err)
	}
	if len(a.Crashes) != len(b.Crashes) {
		t.Fatalf("crash counts differ: %v vs %v", a.Crashes, b.Crashes)
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Errorf("crash %d differs: %+v vs %+v", i, a.Crashes[i], b.Crashes[i])
		}
	}
	if a.Result.FinalLoss != b.Result.FinalLoss {
		t.Errorf("final loss not reproducible: %v vs %v", a.Result.FinalLoss, b.Result.FinalLoss)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed not reproducible: %v vs %v", a.Elapsed, b.Elapsed)
	}
}
