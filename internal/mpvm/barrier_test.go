package mpvm

import (
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// TestFlushBarrierCountsOnlyMembers pins who a stage-2 barrier waits on: the
// hosts reachable when it opens. Host 3 is declared unreachable but still
// runs, so its mpvmd acknowledges the flush anyway; host 2 is a member cut
// off by a partition. The stray ack from host 3 must not stand in for host
// 2's missing one: the hold completes only once host 2 is written off.
func TestFlushBarrierCountsOnlyMembers(t *testing.T) {
	k, s := testSystem(t, 4)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	mt, err := s.SpawnMigratable(0, "held", 1<<20, func(mt *MTask) { _ = mt.Compute(speed * 10) })
	if err != nil {
		t.Fatal(err)
	}
	s.NoteHostUnreachable(3)
	s.Machine().Cluster().Network().Partition(map[netsim.HostID]int{2: 1})
	var flushedAt sim.Time = -1
	k.Schedule(time.Second, func() {
		k.Spawn("checkpointer", func(p *sim.Proc) {
			if err := s.FlushAndHold(p, mt.OrigTID()); err != nil {
				t.Errorf("FlushAndHold: %v", err)
				return
			}
			flushedAt = p.Now()
			s.Release(mt.OrigTID())
		})
	})
	k.RunUntil(3 * time.Second)
	if flushedAt >= 0 {
		t.Fatalf("hold completed at %v without host 2's ack", flushedAt)
	}
	s.NoteHostUnreachable(2)
	k.Run()
	if flushedAt != 3*time.Second {
		t.Fatalf("hold completed at %v, want 3s: writing off the last member completes it", flushedAt)
	}
}

// TestCancelledColdMigrationDoesNotRun pins the check a migrate signal makes
// when it lands: the victim is inside 8 MB sends (interrupts masked) when
// the flush completes, and its coordinator host is declared lost at that
// instant, which cancels the migration and settles it as aborted. The
// deferred signal must then find nothing to do: no transfer, no record, the
// task still on its source host.
func TestCancelledColdMigrationDoesNotRun(t *testing.T) {
	k, s := testSystem(t, 2)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	const sends = 20
	sink, err := s.SpawnMigratable(0, "sink", 1<<20, func(mt *MTask) {
		for i := 0; i < sends; i++ {
			if _, _, _, err := mt.Recv(core.AnyTID, core.AnyTag); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.SpawnMigratable(0, "victim", 1<<20, func(mt *MTask) {
		for i := 0; i < sends; i++ {
			if err := mt.Send(sink.OrigTID(), 1, core.NewBuffer().PkVirtual(8<<20)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if err := mt.Compute(speed / 10); err != nil {
				t.Errorf("compute %d: %v", i, err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTracer(func(_, stage, _ string) {
		if stage == "2:flush-complete" {
			k.Schedule(0, func() { s.NoteHostUnreachable(0) })
		}
	})
	aborts := 0
	s.OnAbort(func(core.TID) { aborts++ })
	k.Schedule(time.Second, func() {
		if err := s.Migrate(victim.OrigTID(), 1, core.ReasonManual); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	k.Run()
	if aborts != 1 {
		t.Fatalf("abort hook fired %d times, want 1", aborts)
	}
	if n := len(s.Records()); n != 0 {
		t.Fatalf("%d records for a cancelled migration: %+v", n, s.Records())
	}
	if h := victim.Host().ID(); h != 0 {
		t.Fatalf("victim on host%d, want host0", h)
	}
}
