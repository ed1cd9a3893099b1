package mpvm

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

func testSystem(t *testing.T, nHosts int) (*sim.Kernel, *System) {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, nHosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("host" + string(rune('1'+i)))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	m := pvm.NewMachine(cl, pvm.Config{})
	return k, New(m, Config{})
}

func TestMigrateDuringCompute(t *testing.T) {
	k, s := testSystem(t, 2)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	var endHost string
	var done sim.Time
	mt, err := s.SpawnMigratable(0, "worker", 1<<20, func(mt *MTask) {
		if err := mt.Compute(speed * 10); err != nil { // 10 s of work
			t.Errorf("compute: %v", err)
		}
		endHost = mt.Host().Name()
		done = mt.Proc().Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(3*time.Second, func() {
		if err := s.Migrate(mt.OrigTID(), 1, core.ReasonManual); err != nil {
			t.Errorf("migrate: %v", err)
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
	if r.From != 0 || r.To != 1 || r.NewTID.Host() != 1 {
		t.Fatalf("record = %+v", r)
	}
	if r.Obtrusiveness() <= 0 || r.Cost() < r.Obtrusiveness() {
		t.Fatalf("measures: obtr=%v cost=%v", r.Obtrusiveness(), r.Cost())
	}
	// Work is conserved: 10 s of compute + migration pause.
	if done < 10*time.Second || done > 10*time.Second+r.Cost()+2*time.Second {
		t.Fatalf("done at %v", done)
	}
}

func TestMigrateWhileBlockedInRecv(t *testing.T) {
	k, s := testSystem(t, 2)
	var got int
	var recvHost string
	mt, _ := s.SpawnMigratable(0, "recv", 1<<20, func(mt *MTask) {
		_, _, r, err := mt.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got, _ = r.UpkInt()
		recvHost = mt.Host().Name()
	})
	// Migrate while it waits, then send to its ORIGINAL tid.
	k.Schedule(2*time.Second, func() {
		if err := s.Migrate(mt.OrigTID(), 1, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	s.SpawnMigratable(1, "send", 1<<10, func(st *MTask) {
		st.Proc().Sleep(10 * time.Second) // well after the migration
		if err := st.Send(mt.OrigTID(), 0, core.NewBuffer().PkInt(77)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Run()
	if got != 77 {
		t.Fatalf("got = %d", got)
	}
	if recvHost != "host2" {
		t.Fatalf("received on %q", recvHost)
	}
}

func TestSendToMigratingTaskBlocksUntilRestart(t *testing.T) {
	k, s := testSystem(t, 2)
	var sendDone, migDone sim.Time
	victim, _ := s.SpawnMigratable(0, "victim", 4<<20, func(mt *MTask) {
		mt.Compute(mt.Host().Spec().Speed * 60)
		// Drain the message that was stalled during migration.
		mt.Recv(core.AnyTID, core.AnyTag)
	})
	s.SpawnMigratable(1, "sender", 1<<10, func(mt *MTask) {
		mt.Proc().Sleep(4 * time.Second) // flush is done by then (migration at 3 s)
		if err := mt.Send(victim.OrigTID(), 0, core.NewBuffer().PkInt(1)); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		sendDone = mt.Proc().Now()
	})
	k.Schedule(3*time.Second, func() {
		s.Migrate(victim.OrigTID(), 1, core.ReasonHighLoad)
	})
	k.Run()
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	migDone = recs[0].Reintegrated
	if sendDone < migDone {
		t.Fatalf("blocked send completed at %v, before restart at %v", sendDone, migDone)
	}
}

func TestObtrusivenessScalesWithStateSize(t *testing.T) {
	measure := func(stateBytes int) core.MigrationRecord {
		k, s := testSystem(t, 2)
		mt, _ := s.SpawnMigratable(0, "w", stateBytes, func(mt *MTask) {
			mt.Compute(mt.Host().Spec().Speed * 100)
		})
		k.Schedule(2*time.Second, func() { s.Migrate(mt.OrigTID(), 1, core.ReasonManual) })
		k.RunUntil(90 * time.Second)
		if len(s.Records()) != 1 {
			t.Fatalf("no migration for %d bytes", stateBytes)
		}
		return s.Records()[0]
	}
	small := measure(300_000)
	large := measure(10_400_000)
	os, ol := small.Obtrusiveness().Seconds(), large.Obtrusiveness().Seconds()
	if ol <= os {
		t.Fatalf("obtrusiveness does not scale: %.2f vs %.2f", os, ol)
	}
	// Paper Table 2: 0.3 MB → 1.17 s; 10.4 MB → 12.52 s.
	if os < 0.9 || os > 1.5 {
		t.Errorf("obtrusiveness(0.3MB) = %.2f s, paper 1.17 s", os)
	}
	if ol < 10.5 || ol > 14.0 {
		t.Errorf("obtrusiveness(10.4MB) = %.2f s, paper 12.52 s", ol)
	}
	// Migration cost exceeds obtrusiveness by the restart time.
	if d := large.Cost() - large.Obtrusiveness(); d <= 0 || d > 2*time.Second {
		t.Errorf("restart delta = %v", d)
	}
}

func TestMigrateValidation(t *testing.T) {
	k, s := testSystem(t, 2)
	mt, _ := s.SpawnMigratable(0, "w", 1<<20, func(mt *MTask) {
		mt.Compute(mt.Host().Spec().Speed * 5)
	})
	if err := s.Migrate(core.MakeTID(0, 99), 1, core.ReasonManual); err == nil {
		t.Fatal("unknown task migrated")
	}
	if err := s.Migrate(mt.OrigTID(), 0, core.ReasonManual); err == nil {
		t.Fatal("same-host migration allowed")
	}
	if err := s.Migrate(mt.OrigTID(), 9, core.ReasonManual); err == nil {
		t.Fatal("missing host allowed")
	}
	k.Run()
}

func TestMigrateIncompatibleArch(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.HostSpec{Name: "hp", Arch: "hppa", Speed: 9e6, MemMB: 64},
		cluster.HostSpec{Name: "sun", Arch: "sparc", Speed: 7e6, MemMB: 64},
	)
	s := New(pvm.NewMachine(cl, pvm.Config{}), Config{})
	mt, _ := s.SpawnMigratable(0, "w", 1<<20, func(mt *MTask) {})
	if err := s.Migrate(mt.OrigTID(), 1, core.ReasonManual); err == nil {
		t.Fatal("cross-architecture migration allowed")
	}
	k.Run()
}

func TestDoubleMigrationSequential(t *testing.T) {
	k, s := testSystem(t, 3)
	var path []string
	mt, _ := s.SpawnMigratable(0, "w", 1<<20, func(mt *MTask) {
		for i := 0; i < 3; i++ {
			mt.Compute(mt.Host().Spec().Speed * 10)
			path = append(path, mt.Host().Name())
		}
	})
	k.Schedule(3*time.Second, func() { s.Migrate(mt.OrigTID(), 1, core.ReasonManual) })
	k.Schedule(15*time.Second, func() { s.Migrate(mt.OrigTID(), 2, core.ReasonManual) })
	k.Run()
	if len(s.Records()) != 2 {
		t.Fatalf("records = %d", len(s.Records()))
	}
	if s.Records()[1].From != 1 || s.Records()[1].To != 2 {
		t.Fatalf("second migration = %+v", s.Records()[1])
	}
	if path[len(path)-1] != "host3" {
		t.Fatalf("path = %v", path)
	}
}

func TestMigrationDeferredInsideLibrary(t *testing.T) {
	// A migration signal arriving while the task is inside a library call
	// (interrupts masked) must be deferred, not lost.
	k, s := testSystem(t, 2)
	var host string
	mt, _ := s.SpawnMigratable(0, "w", 1<<20, func(mt *MTask) {
		// Long library activity: a send of a huge buffer to a peer; the
		// packing charge happens inside the masked region.
		mt.Compute(mt.Host().Spec().Speed * 8)
		host = mt.Host().Name()
	})
	// Signal mid-compute: compute is interruptible, so this exercises the
	// prompt path; the masked path is exercised by every test that migrates
	// during sends (blocking & flushing).
	k.Schedule(time.Second, func() { s.Migrate(mt.OrigTID(), 1, core.ReasonManual) })
	k.Run()
	if host != "host2" {
		t.Fatalf("task finished on %q", host)
	}
	if len(s.Records()) != 1 {
		t.Fatal("migration lost")
	}
}

// The paper's transparency claim, as an invariant: across a migration, no
// message is lost, duplicated, or reordered per sender, for a variety of
// migration timings relative to a continuous message stream.
func TestNoMessageLossAcrossMigration(t *testing.T) {
	for _, migrateAt := range []time.Duration{
		1 * time.Second, 2 * time.Second, 2500 * time.Millisecond,
		3 * time.Second, 5 * time.Second, 8 * time.Second,
	} {
		k, s := testSystem(t, 2)
		const n = 40
		var got []int
		victim, _ := s.SpawnMigratable(0, "victim", 2<<20, func(mt *MTask) {
			for i := 0; i < n; i++ {
				_, _, r, err := mt.Recv(core.AnyTID, core.AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				v, _ := r.UpkInt()
				got = append(got, v)
			}
		})
		s.SpawnMigratable(1, "sender", 1<<10, func(mt *MTask) {
			for i := 0; i < n; i++ {
				if err := mt.Send(victim.OrigTID(), 0, core.NewBuffer().PkInt(i).PkVirtual(20_000)); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
				mt.Proc().Sleep(200 * time.Millisecond)
			}
		})
		k.Schedule(migrateAt, func() {
			s.Migrate(victim.OrigTID(), 1, core.ReasonManual)
		})
		k.Run()
		if len(got) != n {
			t.Fatalf("migrateAt=%v: received %d of %d: %v", migrateAt, len(got), n, got)
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("migrateAt=%v: order broken at %d: %v", migrateAt, i, got)
			}
		}
		for h := 0; h < 2; h++ {
			if held := s.Machine().Daemon(h).HeldMessages(); len(held) != 0 {
				t.Fatalf("migrateAt=%v: %d messages stranded at daemon %d", migrateAt, len(held), h)
			}
		}
	}
}

func TestTIDRemappingIsTransparent(t *testing.T) {
	k, s := testSystem(t, 2)
	var echoed int
	victim, _ := s.SpawnMigratable(0, "victim", 1<<20, func(mt *MTask) {
		// Echo server: reply to the tid it sees as source.
		src, _, r, err := mt.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return
		}
		v, _ := r.UpkInt()
		mt.Send(src, 1, core.NewBuffer().PkInt(v*2))
	})
	s.SpawnMigratable(1, "client", 1<<10, func(mt *MTask) {
		mt.Proc().Sleep(8 * time.Second) // after victim has migrated to host2
		if err := mt.Send(victim.OrigTID(), 0, core.NewBuffer().PkInt(21)); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		_, _, r, err := mt.Recv(victim.OrigTID(), 1) // filter by ORIGINAL tid
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		echoed, _ = r.UpkInt()
	})
	k.Schedule(2*time.Second, func() { s.Migrate(victim.OrigTID(), 1, core.ReasonManual) })
	k.Run()
	if echoed != 42 {
		t.Fatalf("echoed = %d (tid remapping broken)", echoed)
	}
}

func TestMigrationRecordTimestampsOrdered(t *testing.T) {
	k, s := testSystem(t, 2)
	mt, _ := s.SpawnMigratable(0, "w", 5<<20, func(mt *MTask) {
		mt.Compute(mt.Host().Spec().Speed * 60)
	})
	k.Schedule(time.Second, func() { s.Migrate(mt.OrigTID(), 1, core.ReasonManual) })
	k.RunUntil(2 * time.Minute)
	r := s.Records()[0]
	if !(r.Start < r.OffSource && r.OffSource < r.Reintegrated) {
		t.Fatalf("timestamps not ordered: %+v", r)
	}
	if r.StateBytes < 5<<20 {
		t.Fatalf("state bytes = %d", r.StateBytes)
	}
}

func TestStaleTIDForwardedAtDaemonLevel(t *testing.T) {
	// A plain PVM task (no MPVM library, no tid remapping) keeps sending to
	// a migratable task's ORIGINAL tid after it migrated: the mpvmd-level
	// forwarding rewrites the destination and delivers — nothing is held.
	k, s := testSystem(t, 2)
	var got []int
	victim, _ := s.SpawnMigratable(0, "victim", 1<<20, func(mt *MTask) {
		for i := 0; i < 2; i++ {
			_, _, r, err := mt.Recv(core.AnyTID, core.AnyTag)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			v, _ := r.UpkInt()
			got = append(got, v)
		}
	})
	oldTID := victim.OrigTID()
	// The sender is a PLAIN task: it has no remap hooks, so its sends to
	// the old tid reach the old host's daemon, which must forward.
	s.Machine().Spawn(1, "legacy-sender", func(task *pvm.Task) {
		task.Proc().Sleep(15 * time.Second) // well after the migration
		task.Send(oldTID, 0, core.NewBuffer().PkInt(1))
		task.Proc().Sleep(time.Second)
		task.Send(oldTID, 0, core.NewBuffer().PkInt(2))
	})
	k.Schedule(2*time.Second, func() { s.Migrate(oldTID, 1, core.ReasonManual) })
	k.RunUntil(time.Minute)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v (blocked: %v)", got, k.Blocked())
	}
	for h := 0; h < 2; h++ {
		if held := s.Machine().Daemon(h).HeldMessages(); len(held) != 0 {
			t.Fatalf("%d messages held at daemon %d", len(held), h)
		}
	}
}

func TestConfigAccessorAndStateBytes(t *testing.T) {
	k, s := testSystem(t, 1)
	mt, _ := s.SpawnMigratable(0, "w", 123456, func(mt *MTask) {})
	if mt.StateBytes() != 123456 {
		t.Fatalf("StateBytes = %d", mt.StateBytes())
	}
	k.Run()
}
