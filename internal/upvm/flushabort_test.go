package upvm

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// TestFlushTimeoutRevertsULPUnderPartition pins the flush-barrier
// hardening: a peer that is alive but partitioned away never acks the
// stage-2 flush, the barrier times out instead of wedging, the captured
// ULP reverts to the source and keeps running, no migration record is
// emitted for the abort (the abort hook reports it instead), and a retry
// after the partition heals succeeds exactly once. It runs at the shipped
// flushTimeout.
func TestFlushTimeoutRevertsULPUnderPartition(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("h1"),
		cluster.DefaultHostSpec("h2"),
		cluster.DefaultHostSpec("h3"))
	s := New(pvm.NewMachine(cl, pvm.Config{}), Config{})

	var stages []string
	s.SetTracer(func(actor, stage, detail string) { stages = append(stages, stage) })
	var aborted []int
	s.OnAbort(func(ulpID int) { aborted = append(aborted, ulpID) })

	ulps, err := s.Start("app", []ULPSpec{{Host: 0, DataBytes: mb(0.3)}}, func(u *ULP, rank int) {
		u.Compute(u.Host().Spec().Speed * 30)
	})
	if err != nil {
		t.Fatal(err)
	}
	u := ulps[0]

	// Host 2 is partitioned away; its process never sees the flush.
	k.Schedule(time.Second, func() {
		cl.Network().Partition(map[netsim.HostID]int{0: 0, 1: 0, 2: 1})
	})
	k.Schedule(2*time.Second, func() {
		if err := s.Migrate(0, 1, core.ReasonManual); err != nil {
			t.Errorf("migrate during partition: %v", err)
		}
	})
	deadline := 2*time.Second + flushTimeout
	k.Schedule(deadline+2*time.Second, func() {
		if u.Migrating() {
			t.Error("ULP still migrating 2s past the flush deadline: barrier wedged")
		}
		if got := int(u.Host().ID()); got != 0 {
			t.Errorf("aborted ULP on host %d, want reverted to 0", got)
		}
		if len(s.procs[0].ulps) != 1 {
			t.Error("aborted ULP not back in the source process table")
		}
		if len(s.Records()) != 0 {
			t.Errorf("aborted migration produced %d records, want 0", len(s.Records()))
		}
		cl.Network().Heal()
	})
	// The retry's fresh barrier must not be satisfied by stale acks from
	// the aborted one (the generation guard) — it has to complete on its own.
	k.Schedule(deadline+3*time.Second, func() {
		if err := s.Migrate(0, 2, core.ReasonManual); err != nil {
			t.Errorf("migrate after heal: %v", err)
		}
	})
	k.RunUntil(10 * time.Minute)

	if !u.Done() {
		t.Fatal("ULP never finished: lost to the aborted migration")
	}
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want exactly 1 (abort counts zero, retry once)", len(recs))
	}
	if recs[0].From != 0 || recs[0].To != 2 {
		t.Fatalf("record = %d→%d, want 0→2", recs[0].From, recs[0].To)
	}
	aborts := 0
	for _, st := range stages {
		if st == "2:flush-abort" {
			aborts++
		}
	}
	if aborts != 1 {
		t.Fatalf("flush-abort traced %d times, want 1", aborts)
	}
	if len(aborted) != 1 || aborted[0] != 0 {
		t.Fatalf("abort hook reported %v, want [0]", aborted)
	}
}
