package mpvm

import (
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// TestWarmMigrateDuringCompute runs the precopy protocol end to end: the
// victim keeps computing through several rounds, freezes only for the
// final delta, and finishes on the destination.
func TestWarmMigrateDuringCompute(t *testing.T) {
	k, s := testSystem(t, 2)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	var endHost string
	mt, err := s.SpawnMigratable(0, "worker", 8<<20, func(mt *MTask) {
		mt.SetDirtyRate(128 << 10) // rewrites 128 KB/s of its 8 MB image
		if err := mt.Compute(speed * 60); err != nil {
			t.Errorf("compute: %v", err)
		}
		endHost = mt.Host().Name()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(3*time.Second, func() {
		if err := s.MigrateWarm(mt.OrigTID(), 1, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("migrate warm: %v", err)
		}
	})
	k.Run()
	if endHost != "host2" {
		t.Fatalf("finished on %q, want host2", endHost)
	}
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Mode != core.MigrationWarm {
		t.Fatalf("mode = %q, want warm", r.Mode)
	}
	if r.Rounds < 1 || r.PrecopyBytes < 8<<20 {
		t.Fatalf("rounds=%d precopyBytes=%d; want ≥1 round covering the full image", r.Rounds, r.PrecopyBytes)
	}
	if r.Frozen <= r.Start || r.Frozen > r.Reintegrated {
		t.Fatalf("freeze instant %v outside migration window [%v, %v]", r.Frozen, r.Start, r.Reintegrated)
	}
	if r.Downtime() <= 0 || r.Downtime() >= r.Cost() {
		t.Fatalf("downtime %v not a strict sub-window of cost %v", r.Downtime(), r.Cost())
	}
}

// measureDowntime migrates one large-state task (warm or cold) on a fresh
// two-host system and returns its migration record.
func measureDowntime(t *testing.T, warm bool, stateBytes int) core.MigrationRecord {
	t.Helper()
	k, s := testSystem(t, 2)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	mt, err := s.SpawnMigratable(0, "big", stateBytes, func(mt *MTask) {
		mt.SetDirtyRate(64 << 10)
		if err := mt.Compute(speed * 120); err != nil {
			t.Errorf("compute: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(2*time.Second, func() {
		var err error
		if warm {
			err = s.MigrateWarm(mt.OrigTID(), 1, core.ReasonOwnerReclaim)
		} else {
			err = s.Migrate(mt.OrigTID(), 1, core.ReasonOwnerReclaim)
		}
		if err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	k.Run()
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	return recs[0]
}

// warmDowntimeBound is the guarantee the precopy protocol gives: once the
// residual delta is under warmCutoverBytes, the frozen window covers at
// most that residual plus the buffered messages and register context over
// the wire, plus the restart overhead. The factor-4 slack absorbs protocol
// control round trips without weakening the linear-in-state comparison
// (the cold downtime for the same task is two orders of magnitude larger).
func warmDowntimeBound() sim.Time {
	const contextBytes = 4 << 10
	wire := sim.FromSeconds(4 * float64(warmCutoverBytes+contextBytes) / transferCopyBps)
	return wire + 4*restartOverhead + time.Second
}

// TestWarmBoundedDowntime pins the tentpole guarantee: for a large-state
// task, warm downtime is strictly below the same task's stop-and-copy
// downtime AND below the configured bound, which is independent of state
// size.
func TestWarmBoundedDowntime(t *testing.T) {
	const stateBytes = 32 << 20
	cold := measureDowntime(t, false, stateBytes)
	warm := measureDowntime(t, true, stateBytes)
	if warm.Mode != core.MigrationWarm || cold.Mode != core.MigrationCold {
		t.Fatalf("modes: warm=%q cold=%q", warm.Mode, cold.Mode)
	}
	if warm.Downtime() >= cold.Downtime() {
		t.Fatalf("warm downtime %v not below cold downtime %v", warm.Downtime(), cold.Downtime())
	}
	bound := warmDowntimeBound()
	if warm.Downtime() >= bound {
		t.Fatalf("warm downtime %v exceeds configured bound %v", warm.Downtime(), bound)
	}
	t.Logf("state=%dMB cold downtime=%v warm downtime=%v (bound %v, %d rounds, %d precopy bytes)",
		stateBytes>>20, cold.Downtime(), warm.Downtime(), bound, warm.Rounds, warm.PrecopyBytes)
}

// TestWarmRoundCapCutsOver pins the warmMaxRounds escape hatch: a task
// dirtying faster than the wire drains still cuts over after the round
// cap instead of chasing the delta forever.
func TestWarmRoundCapCutsOver(t *testing.T) {
	k, s := testSystem(t, 2)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	mt, err := s.SpawnMigratable(0, "hot", 8<<20, func(mt *MTask) {
		mt.SetDirtyRate(1e9) // dirties its whole image faster than any round drains
		mt.Compute(speed * 120)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(time.Second, func() {
		if err := s.MigrateWarm(mt.OrigTID(), 1, core.ReasonHighLoad); err != nil {
			t.Errorf("migrate warm: %v", err)
		}
	})
	k.Run()
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if got, want := recs[0].Rounds, warmMaxRounds; got != want {
		t.Fatalf("rounds = %d, want the cap %d", got, want)
	}
}

// TestWarmAbortMidPrecopyCountsOnce is the accounting regression for the
// bugfix sweep: a precopy that aborts to source mid-round (destination
// dies during the rounds) must contribute no record, and a subsequent
// successful migration of the same task exactly one — bytes and records
// are counted once, never twice.
func TestWarmAbortMidPrecopyCountsOnce(t *testing.T) {
	k, s := testSystem(t, 3)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	var aborts []core.TID
	s.OnAbort(func(orig core.TID) { aborts = append(aborts, orig) })
	mt, err := s.SpawnMigratable(0, "survivor", 16<<20, func(mt *MTask) {
		mt.SetDirtyRate(256 << 10)
		mt.Compute(speed * 120)
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(time.Second, func() {
		if err := s.MigrateWarm(mt.OrigTID(), 1, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("migrate warm: %v", err)
		}
	})
	// The 16 MB image takes several seconds of rounds; kill the destination
	// in the middle of them.
	k.Schedule(4*time.Second, func() {
		s.Machine().Cluster().Host(1).Fail()
	})
	// After the abort settles, retry to a healthy host.
	k.Schedule(40*time.Second, func() {
		if mt.Migrating() {
			t.Error("task still marked migrating long after the abort")
		}
		if err := s.MigrateWarm(mt.OrigTID(), 2, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("retry migrate: %v", err)
		}
	})
	k.Run()
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want exactly 1 (abort must not append)", len(recs))
	}
	if recs[0].To != 2 || recs[0].Mode != core.MigrationWarm {
		t.Fatalf("record = %+v, want warm move to host 2", recs[0])
	}
	if len(aborts) != 1 || aborts[0] != mt.OrigTID() {
		t.Fatalf("abort hooks = %v, want exactly one for %v", aborts, mt.OrigTID())
	}
	if mt.Host().Name() != "host3" {
		t.Fatalf("task on %q, want host3", mt.Host().Name())
	}
}

// TestFinishMigrationAppendsOnce is the white-box half of the accounting
// regression: no matter how many protocol paths reach finishMigration for
// the same migration entry, the record lands once.
func TestFinishMigrationAppendsOnce(t *testing.T) {
	_, s := testSystem(t, 2)
	var hookCalls int
	s.OnRecord(func(core.MigrationRecord) { hookCalls++ })
	mig := &migration{order: core.MigrationOrder{VP: 1, Dest: 1}, orig: 1}
	rec := core.MigrationRecord{VP: 1, To: 1, StateBytes: 123}
	s.finishMigration(mig, rec)
	s.finishMigration(mig, rec) // a duplicated confirm path must be a no-op
	if len(s.Records()) != 1 {
		t.Fatalf("records = %d, want 1", len(s.Records()))
	}
	if hookCalls != 1 {
		t.Fatalf("record hooks fired %d times, want 1", hookCalls)
	}
}

// TestWarmVictimExitAborts: the victim finishing during the precopy rounds
// abandons the migration cleanly — no record, no stuck senders.
func TestWarmVictimExitAborts(t *testing.T) {
	k, s := testSystem(t, 2)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	mt, err := s.SpawnMigratable(0, "brief", 16<<20, func(mt *MTask) {
		mt.Compute(speed * 3) // exits while the first rounds still stream
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(time.Second, func() {
		if err := s.MigrateWarm(mt.OrigTID(), 1, core.ReasonManual); err != nil {
			t.Errorf("migrate warm: %v", err)
		}
	})
	k.Run()
	if len(s.Records()) != 0 {
		t.Fatalf("records = %d, want 0 after victim exit", len(s.Records()))
	}
	if len(s.migrations) != 0 {
		t.Fatalf("migrations still pending: %d", len(s.migrations))
	}
}
