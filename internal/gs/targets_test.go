package gs

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/upvm"
)

func TestUPVMTargetOwnerReclaim(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"))
	sys := upvm.New(pvm.NewMachine(cl, pvm.Config{}), upvm.Config{})
	var endHosts []string
	_, err := sys.Start("app", []upvm.ULPSpec{
		{Host: 0, DataBytes: 100_000},
		{Host: 1, DataBytes: 100_000},
		{Host: 1, DataBytes: 100_000},
	}, func(u *upvm.ULP, rank int) {
		u.Compute(u.Host().Spec().Speed * 60)
		endHosts = append(endHosts, u.Host().Name())
	})
	if err != nil {
		t.Fatal(err)
	}
	target := NewVPTarget(sys)
	for i := 0; i < 3; i++ {
		target.Track(i)
	}
	if target.HostLoad(1) != 2 {
		t.Fatalf("host1 load = %d", target.HostLoad(1))
	}
	sched := NewFleet(cl, target, DefaultFleetPolicy())
	sched.Start()
	k.Schedule(10*time.Second, func() { cl.Host(1).SetOwnerActive(true) })
	k.RunUntil(10 * time.Minute)
	if len(sys.Records()) != 2 {
		t.Fatalf("ULP migrations = %d, want 2 (both ULPs evacuated)", len(sys.Records()))
	}
	if len(endHosts) != 3 {
		t.Fatalf("finished ULPs = %d", len(endHosts))
	}
	for _, h := range endHosts {
		if h != "h1" {
			t.Fatalf("a ULP finished on %s after eviction", h)
		}
	}
	d := sched.Decisions()
	if len(d) != 1 || d[0].Moved != 2 {
		t.Fatalf("decisions = %+v", d)
	}
}

func TestManualEvacuate(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("a"), cluster.DefaultHostSpec("b"))
	sys := upvm.New(pvm.NewMachine(cl, pvm.Config{}), upvm.Config{})
	sys.Start("app", []upvm.ULPSpec{{Host: 1, DataBytes: 50_000}},
		func(u *upvm.ULP, rank int) { u.Compute(u.Host().Spec().Speed * 30) })
	target := NewVPTarget(sys)
	target.Track(0)
	sched := NewFleet(cl, target, FleetPolicy{}) // no automatic triggers
	sched.Start()
	k.Schedule(2_000_000_000, func() { sched.evacuate(1, core.ReasonManual) })
	k.RunUntil(300_000_000_000)
	if len(sys.Records()) != 1 {
		t.Fatalf("records = %d", len(sys.Records()))
	}
	if d := sched.Decisions(); len(d) != 1 || d[0].Reason != core.ReasonManual {
		t.Fatalf("decisions = %+v", d)
	}
}

func TestUPVMTargetMoveOne(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("a"), cluster.DefaultHostSpec("b"))
	sys := upvm.New(pvm.NewMachine(cl, pvm.Config{}), upvm.Config{})
	sys.Start("app", []upvm.ULPSpec{{Host: 0, DataBytes: 50_000}},
		func(u *upvm.ULP, rank int) { u.Compute(u.Host().Spec().Speed * 30) })
	target := NewVPTarget(sys)
	target.Track(0)
	if err := target.MoveOne(1, 0, core.ReasonManual); err == nil {
		t.Fatal("MoveOne from empty host succeeded")
	}
	k.Schedule(2_000_000_000, func() {
		if err := target.MoveOne(0, 1, core.ReasonHighLoad); err != nil {
			t.Errorf("MoveOne: %v", err)
		}
	})
	k.RunUntil(300_000_000_000)
	if len(sys.Records()) != 1 {
		t.Fatalf("records = %d", len(sys.Records()))
	}
}

// TestUPVMEvacuationSkipsDeadHost: evacuation never orders a ULP onto a
// host that is crashed, or that the GS has declared dead while it is still
// up (a partition), however idle it looks. Only the stage-1 order is
// asserted: a move to the crashed host would abort at
// UPVM's flush barrier, because the crashed peer never acks and UPVM has no
// host-loss discount — ROADMAP item 4 (one protocol core), not this rule.
func TestUPVMEvacuationSkipsDeadHost(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(k *sim.Kernel, cl *cluster.Cluster, tgt *VPTarget[int])
	}{
		{"crashed", func(k *sim.Kernel, cl *cluster.Cluster, _ *VPTarget[int]) {
			k.Schedule(time.Second, func() { cl.Host(1).Fail() })
		}},
		{"declared dead", func(k *sim.Kernel, cl *cluster.Cluster, tgt *VPTarget[int]) {
			pol := FleetPolicy{HeartbeatInterval: 500 * time.Millisecond, SuspectAfter: time.Second}
			fleet := NewFleet(cl, tgt, pol)
			fleet.SetHeartbeatSource(&partitionBeats{k: k, cut: map[int]sim.Time{1: 0}})
			fleet.Start()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			cl := cluster.New(k, netsim.Params{},
				cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"), cluster.DefaultHostSpec("h3"))
			sys := upvm.New(pvm.NewMachine(cl, pvm.Config{}), upvm.Config{})
			var orders []string
			sys.SetTracer(func(actor, stage, detail string) {
				if stage == "1:migration-event" {
					orders = append(orders, detail)
				}
			})
			_, err := sys.Start("app", []upvm.ULPSpec{
				{Host: 0, DataBytes: 100_000},
				{Host: 2, DataBytes: 100_000},
			}, func(u *upvm.ULP, rank int) { u.Compute(u.Host().Spec().Speed * 30) })
			if err != nil {
				t.Fatal(err)
			}
			target := NewVPTarget(sys)
			target.Track(0)
			target.Track(1)
			tc.lose(k, cl, target)
			k.Schedule(2*time.Second, func() {
				if moved, err := target.EvacuateHost(0, core.ReasonOwnerReclaim); moved != 1 || err != nil {
					t.Errorf("EvacuateHost = %d, %v; want 1 move ordered", moved, err)
				}
			})
			k.RunUntil(time.Minute)
			if len(orders) != 1 || orders[0] != "migrate ULP0 to host2 (owner-reclaim)" {
				t.Fatalf("stage-1 orders = %q, want ULP0 sent to host2 (host1 is %s)", orders, tc.name)
			}
		})
	}
}
