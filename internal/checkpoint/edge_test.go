package checkpoint

import (
	"testing"
	"time"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Interval == 0 {
		t.Fatalf("defaults incomplete: %+v", p)
	}
}

func TestNoEvictionNoMigrationFields(t *testing.T) {
	res, err := RunMigrateCurrent(100 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obtrusiveness != 0 || res.Resumed != 0 || res.LostWorkFlops != 0 {
		t.Fatalf("quiet run has migration artifacts: %+v", res)
	}
	// 300 s of solo work.
	if c := res.Completion.Seconds(); c < soloSeconds-0.1 || c > soloSeconds+0.1 {
		t.Fatalf("completion = %f", c)
	}
}

func TestEvictionDuringCheckpointWrite(t *testing.T) {
	// The eviction lands inside a checkpoint freeze (checkpoints start at
	// 60 s and take ~2.8 s): the half-written checkpoint is invalid and the
	// job must restart from the previous one.
	p := baseParams()
	res, err := RunCheckpointed(p, 61*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion <= 0 {
		t.Fatal("job never completed")
	}
	// Lost work: everything since the previous checkpoint (the first one at
	// 60 s was interrupted, so the baseline is t=0): ~60 s of work.
	if lost := res.LostWorkFlops / 9e6; lost < 55 || lost > 65 {
		t.Fatalf("lost %.1f s of work, want ~60", lost)
	}
}
