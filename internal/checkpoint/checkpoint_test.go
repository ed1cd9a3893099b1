package checkpoint

import (
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

// soloSeconds is the job's run time on the 9 Mflop/s CPU with no eviction.
const soloSeconds = jobWorkFlops / 9e6

func baseParams() Params { return Params{Interval: time.Minute} }

func TestMigrateCurrentNoLostWork(t *testing.T) {
	res, err := RunMigrateCurrent(100 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostWorkFlops != 0 {
		t.Fatalf("lost work = %f", res.LostWorkFlops)
	}
	// 4 MB over ~1.04 MB/s ≈ 4 s obtrusiveness.
	obtr := res.Obtrusiveness.Seconds()
	if want := float64(jobStateBytes) / 1.04e6; obtr < want-0.5 || obtr > want+1 {
		t.Fatalf("obtrusiveness = %.2f s, want ~%.2f", obtr, want)
	}
	// Completion ≈ 300 s work + migration pause.
	c := res.Completion.Seconds()
	if c < soloSeconds || c > soloSeconds+10 {
		t.Fatalf("completion = %.2f s", c)
	}
}

func TestCheckpointedTinyObtrusiveness(t *testing.T) {
	res, err := RunCheckpointed(baseParams(), 100*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: killing a checkpointed job is nearly instant.
	if res.Obtrusiveness > 200*time.Millisecond {
		t.Fatalf("checkpoint obtrusiveness = %v", res.Obtrusiveness)
	}
	migr, err := RunMigrateCurrent(100 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obtrusiveness >= migr.Obtrusiveness/10 {
		t.Fatalf("checkpoint obtr %v not ≪ migrate obtr %v",
			res.Obtrusiveness, migr.Obtrusiveness)
	}
}

func TestCheckpointedPaysPeriodicCost(t *testing.T) {
	// Without any eviction the checkpointing job is strictly slower: the
	// periodic freeze costs add up (the paper's "cost of taking periodic
	// checkpoints").
	never := 100 * time.Hour
	ck, err := RunCheckpointed(baseParams(), never)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := RunMigrateCurrent(never)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completion <= mg.Completion {
		t.Fatalf("checkpointing (%v) not slower than plain run (%v)",
			ck.Completion, mg.Completion)
	}
	if ck.Checkpoints == 0 || ck.CheckpointTime == 0 {
		t.Fatalf("no checkpoints recorded: %+v", ck)
	}
	// ~300 s of work with 60 s interval → 4 checkpoints, each ~2.8 s.
	if ck.Checkpoints < 3 || ck.Checkpoints > 6 {
		t.Fatalf("checkpoints = %d", ck.Checkpoints)
	}
	expected := time.Duration(ck.Checkpoints) * ck.CheckpointTime / time.Duration(ck.Checkpoints)
	_ = expected
	if d := ck.Completion - mg.Completion; d < ck.CheckpointTime {
		t.Fatalf("slowdown %v < checkpoint time %v", d, ck.CheckpointTime)
	}
}

func TestCheckpointedLosesAtMostOneInterval(t *testing.T) {
	p := baseParams()
	for _, evictAt := range []sim.Time{30 * time.Second, 95 * time.Second, 200 * time.Second} {
		res, err := RunCheckpointed(p, evictAt)
		if err != nil {
			t.Fatal(err)
		}
		maxLost := sim.Seconds(p.Interval) * 9e6 * 1.05 // one interval of solo work
		if res.LostWorkFlops < 0 || res.LostWorkFlops > maxLost {
			t.Fatalf("evictAt=%v: lost work = %.0f flops (max %f)",
				evictAt, res.LostWorkFlops, maxLost)
		}
	}
}

func TestShorterIntervalTradesOverheadForLoss(t *testing.T) {
	short := baseParams()
	short.Interval = 20 * time.Second
	long := baseParams()
	long.Interval = 2 * time.Minute
	evict := 150 * time.Second

	s, err := RunCheckpointed(short, evict)
	if err != nil {
		t.Fatal(err)
	}
	l, err := RunCheckpointed(long, evict)
	if err != nil {
		t.Fatal(err)
	}
	if s.Checkpoints <= l.Checkpoints {
		t.Fatalf("short interval wrote %d ckpts vs %d", s.Checkpoints, l.Checkpoints)
	}
	if s.CheckpointTime <= l.CheckpointTime {
		t.Fatalf("short interval overhead %v vs %v", s.CheckpointTime, l.CheckpointTime)
	}
	if s.LostWorkFlops >= l.LostWorkFlops {
		t.Fatalf("short interval lost %.0f vs %.0f flops", s.LostWorkFlops, l.LostWorkFlops)
	}
}

func TestCompletionCrossover(t *testing.T) {
	// With an eviction, migrate-current-state still finishes sooner for this
	// configuration: it neither pays checkpoint freezes nor redoes work.
	evict := 150 * time.Second
	ck, err := RunCheckpointed(baseParams(), evict)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := RunMigrateCurrent(evict)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Completion >= ck.Completion {
		t.Fatalf("migrate (%v) not faster overall than checkpoint (%v)",
			mg.Completion, ck.Completion)
	}
}
