package upvm

import (
	"strings"
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
	return k, New(pvm.NewMachine(cl, pvm.Config{}), Config{})
}

func mb(n float64) int { return int(n * 1e6) }

func TestAddressSpaceLayout(t *testing.T) {
	a := NewAddressSpace()
	var regions []Region
	for i := 0; i < 5; i++ {
		r, err := a.Reserve(i, mb(1)*(i+1))
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Globally unique, disjoint, ascending.
	for i := 1; i < len(regions); i++ {
		if regions[i].Base < regions[i-1].End() {
			t.Fatalf("regions overlap: %v %v", regions[i-1], regions[i])
		}
	}
	layout := a.Layout()
	if !strings.Contains(layout, "ULP0") || !strings.Contains(layout, "ULP4") {
		t.Fatalf("layout missing entries:\n%s", layout)
	}
	if _, err := a.Reserve(0, 1); err == nil {
		t.Fatal("double reservation succeeded")
	}
}

func TestAddressSpaceExhaustion(t *testing.T) {
	a := NewAddressSpace()
	// The 32-bit limit the paper mentions: huge ULPs exhaust the space.
	if _, err := a.Reserve(0, 1<<30); err != nil {
		t.Fatalf("1 GB reservation failed: %v", err)
	}
	if _, err := a.Reserve(1, 1<<30); err == nil {
		t.Fatal("second 1 GB reservation should exhaust a 1.75 GB space")
	}
}

func TestSPMDStartPlacesULPs(t *testing.T) {
	k, s := testSystem(t, 2)
	ulps, err := s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: mb(0.1)},
		{Host: 0, DataBytes: mb(0.1)},
		{Host: 1, DataBytes: mb(0.1)},
	}, func(u *ULP, rank int) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(ulps) != 3 {
		t.Fatalf("ulps = %d", len(ulps))
	}
	if len(s.procs[0].ulps) != 2 || len(s.procs[1].ulps) != 1 {
		t.Fatalf("placement: %d, %d", len(s.procs[0].ulps), len(s.procs[1].ulps))
	}
	if err := s.space.Validate(); err != nil {
		t.Fatal(err)
	}
	k.Run()
}

func TestLocalMessageHandoff(t *testing.T) {
	k, s := testSystem(t, 2)
	var got []float64
	var isLocal bool
	_, err := s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: 1000},
		{Host: 0, DataBytes: 1000},
	}, func(u *ULP, rank int) {
		switch rank {
		case 0:
			if err := u.Send(ULPTID(1), 5, core.NewBuffer().PkFloat64s([]float64{1, 2, 3})); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			_, _, r, err := u.Recv(ULPTID(0), 5)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = r.UpkFloat64s()
			isLocal = u.localMsgs == 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got = %v", got)
	}
	if !isLocal {
		t.Fatal("same-process message did not use hand-off")
	}
}

func TestRemoteMessage(t *testing.T) {
	k, s := testSystem(t, 2)
	var got int
	var remote bool
	_, err := s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: 1000},
		{Host: 1, DataBytes: 1000},
	}, func(u *ULP, rank int) {
		if rank == 0 {
			u.Send(ULPTID(1), 9, core.NewBuffer().PkInt(41))
			return
		}
		src, tag, r, err := u.Recv(core.AnyTID, core.AnyTag)
		if err != nil || src != ULPTID(0) || tag != 9 {
			t.Errorf("recv: src=%v tag=%d err=%v", src, tag, err)
			return
		}
		got = r.UpkInt()
		remote = u.remoteMsgs == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if got != 41 || !remote {
		t.Fatalf("got = %d remote = %v", got, remote)
	}
}

func TestLocalFasterThanRemote(t *testing.T) {
	// The Table 3 effect: co-located ULPs communicate faster than remote
	// ones because of the zero-copy hand-off.
	measure := func(dstHost int) sim.Time {
		k, s := testSystem(t, 2)
		var elapsed sim.Time
		s.Start("app", []ULPSpec{
			{Host: 0, DataBytes: 1000},
			{Host: dstHost, DataBytes: 1000},
		}, func(u *ULP, rank int) {
			if rank == 0 {
				start := u.Proc().Now()
				u.Send(ULPTID(1), 0, core.NewBuffer().PkVirtual(100_000))
				_, _, _, err := u.Recv(ULPTID(1), 1)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				elapsed = u.Proc().Now() - start
				return
			}
			u.Recv(ULPTID(0), 0)
			u.Send(ULPTID(0), 1, core.NewBuffer().PkVirtual(100_000))
		})
		k.Run()
		return elapsed
	}
	local := measure(0)
	remote := measure(1)
	if local <= 0 || remote <= 0 {
		t.Fatalf("local=%v remote=%v", local, remote)
	}
	if local >= remote/4 {
		t.Fatalf("hand-off not much faster: local=%v remote=%v", local, remote)
	}
}

func TestNonPreemptiveScheduling(t *testing.T) {
	// Two compute-bound ULPs in one process never overlap on the CPU: the
	// process is a single Unix job, so 2×5 s of ULP work takes 10 s (not
	// the 5 s two separate processes would show... nor more).
	k, s := testSystem(t, 1)
	speed := 0.0
	var ends []sim.Time
	_, err := s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: 1000},
		{Host: 0, DataBytes: 1000},
	}, func(u *ULP, rank int) {
		speed = u.Host().Spec().Speed
		if err := u.Compute(u.Host().Spec().Speed * 5); err != nil {
			t.Errorf("compute: %v", err)
		}
		ends = append(ends, u.Proc().Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	_ = speed
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	last := ends[0]
	if ends[1] > last {
		last = ends[1]
	}
	// Serialized: total ≈ spawn + 10 s. Allow the spawn cost margin.
	if last < 10*time.Second || last > 11*time.Second {
		t.Fatalf("two 5s ULP bursts finished at %v, want ~10s (serialized)", last)
	}
}

func TestULPMigrationDuringCompute(t *testing.T) {
	k, s := testSystem(t, 2)
	var endHost string
	ulps, err := s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: mb(0.3)},
	}, func(u *ULP, rank int) {
		if err := u.Compute(u.Host().Spec().Speed * 30); err != nil {
			t.Errorf("compute: %v", err)
		}
		endHost = u.Host().Name()
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(2*time.Second, func() {
		if err := s.Migrate(0, 1, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	k.Run()
	if endHost != "host2" {
		t.Fatalf("finished on %q", endHost)
	}
	if len(s.Records()) != 1 {
		t.Fatalf("records = %d", len(s.Records()))
	}
	_ = ulps
	r := s.Records()[0]
	if r.Obtrusiveness() <= 0 || r.Cost() <= r.Obtrusiveness() {
		t.Fatalf("obtr=%v cost=%v", r.Obtrusiveness(), r.Cost())
	}
}

func TestULPMigrationMatchesTable4(t *testing.T) {
	// Paper Table 4: 0.6 MB data (slave ULP holds ~0.3 MB): obtrusiveness
	// 1.67 s, migration 6.88 s.
	k, s := testSystem(t, 2)
	s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: mb(0.3)},
	}, func(u *ULP, rank int) {
		u.Compute(u.Host().Spec().Speed * 60)
	})
	k.Schedule(2*time.Second, func() { s.Migrate(0, 1, core.ReasonManual) })
	k.RunUntil(2 * time.Minute)
	if len(s.Records()) != 1 {
		t.Fatal("migration did not complete")
	}
	r := s.Records()[0]
	obtr, cost := r.Obtrusiveness().Seconds(), r.Cost().Seconds()
	if obtr < 1.2 || obtr > 2.2 {
		t.Errorf("obtrusiveness = %.2f s, paper 1.67 s", obtr)
	}
	if cost < 5.5 || cost > 8.5 {
		t.Errorf("migration cost = %.2f s, paper 6.88 s", cost)
	}
}

func TestULPTIDStableAcrossMigration(t *testing.T) {
	k, s := testSystem(t, 2)
	var tidBefore, tidAfter core.TID
	s.Start("app", []ULPSpec{{Host: 0, DataBytes: mb(0.1)}}, func(u *ULP, rank int) {
		tidBefore = u.Mytid()
		u.Compute(u.Host().Spec().Speed * 20)
		tidAfter = u.Mytid()
	})
	k.Schedule(time.Second, func() { s.Migrate(0, 1, core.ReasonManual) })
	k.Run()
	if tidBefore != tidAfter {
		t.Fatalf("ULP tid changed: %v → %v", tidBefore, tidAfter)
	}
	if len(s.Records()) != 1 {
		t.Fatal("no migration")
	}
}

func TestMessagesFollowMigratedULP(t *testing.T) {
	// A sender keeps sending to a ULP while it migrates: nothing lost,
	// per-sender order preserved.
	k, s := testSystem(t, 2)
	const n = 30
	var got []int
	s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: mb(0.3)},  // receiver: migrates 0→1
		{Host: 1, DataBytes: mb(0.01)}, // sender
	}, func(u *ULP, rank int) {
		if rank == 0 {
			for i := 0; i < n; i++ {
				_, _, r, err := u.Recv(core.AnyTID, core.AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				v := r.UpkInt()
				got = append(got, v)
			}
			return
		}
		for i := 0; i < n; i++ {
			if err := u.Send(ULPTID(0), 0, core.NewBuffer().PkInt(i).PkVirtual(10_000)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			u.Proc().Sleep(300 * time.Millisecond)
		}
	})
	k.Schedule(2*time.Second, func() { s.Migrate(0, 1, core.ReasonManual) })
	k.Run()
	if len(got) != n {
		t.Fatalf("received %d of %d: %v", len(got), n, got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestMigrateValidation(t *testing.T) {
	k, s := testSystem(t, 2)
	s.Start("app", []ULPSpec{{Host: 0, DataBytes: 1000}}, func(u *ULP, rank int) {
		u.Compute(u.Host().Spec().Speed)
	})
	if err := s.Migrate(9, 1, core.ReasonManual); err == nil {
		t.Fatal("unknown ULP migrated")
	}
	if err := s.Migrate(0, 0, core.ReasonManual); err == nil {
		t.Fatal("same-host migration allowed")
	}
	if err := s.Migrate(0, 7, core.ReasonManual); err == nil {
		t.Fatal("missing host allowed")
	}
	k.Run()
}

func TestObtrusivenessScalesWithULPSize(t *testing.T) {
	measure := func(bytes int) core.MigrationRecord {
		k, s := testSystem(t, 2)
		s.Start("app", []ULPSpec{{Host: 0, DataBytes: bytes}}, func(u *ULP, rank int) {
			u.Compute(u.Host().Spec().Speed * 600)
		})
		k.Schedule(time.Second, func() { s.Migrate(0, 1, core.ReasonManual) })
		k.RunUntil(10 * time.Minute)
		if len(s.Records()) != 1 {
			t.Fatalf("no record for %d bytes", bytes)
		}
		return s.Records()[0]
	}
	small := measure(mb(0.3))
	large := measure(mb(2.1))
	if small.Obtrusiveness() >= large.Obtrusiveness() {
		t.Fatalf("obtrusiveness does not scale: %v vs %v",
			small.Obtrusiveness(), large.Obtrusiveness())
	}
	ratio := float64(large.Obtrusiveness()) / float64(small.Obtrusiveness())
	if ratio < 4 || ratio > 10 {
		t.Fatalf("scaling ratio = %.1f, want ~7 (linear in size)", ratio)
	}
}
