package gs

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

func setup(t *testing.T, nHosts int) (*sim.Kernel, *cluster.Cluster, *mpvm.System) {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, nHosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("host" + string(rune('1'+i)))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	return k, cl, mpvm.New(pvm.NewMachine(cl, pvm.Config{}), mpvm.Config{})
}

func spawnWorker(t *testing.T, s *mpvm.System, host int, secs float64) *mpvm.MTask {
	t.Helper()
	mt, err := s.SpawnMigratable(host, "w", 1<<20, func(mt *MTaskAlias) {
		mt.Compute(mt.Host().Spec().Speed * secs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// MTaskAlias keeps the test body readable.
type MTaskAlias = mpvm.MTask

func TestOwnerReclaimEvacuatesHost(t *testing.T) {
	k, cl, sys := setup(t, 2)
	target := NewVPTarget(sys)
	w := spawnWorker(t, sys, 0, 60)
	target.Track(w.OrigTID())
	sched := NewFleet(cl, target, DefaultFleetPolicy())
	sched.Start()
	// Owner returns to host1 at t=5s.
	k.Schedule(5*time.Second, func() { cl.Host(0).SetOwnerActive(true) })
	k.RunUntil(3 * time.Minute)
	if len(sys.Records()) != 1 {
		t.Fatalf("migrations = %d", len(sys.Records()))
	}
	r := sys.Records()[0]
	if r.Reason != core.ReasonOwnerReclaim || r.From != 0 || r.To != 1 {
		t.Fatalf("record = %+v", r)
	}
	dec := sched.Decisions()
	if len(dec) != 1 || dec[0].Moved != 1 || dec[0].Err != nil {
		t.Fatalf("decisions = %+v", dec)
	}
}

func TestOwnerReclaimSkipsOwnedDestinations(t *testing.T) {
	k, cl, sys := setup(t, 3)
	target := NewVPTarget(sys)
	w := spawnWorker(t, sys, 0, 60)
	target.Track(w.OrigTID())
	sched := NewFleet(cl, target, DefaultFleetPolicy())
	sched.Start()
	// host2's owner is already present; evacuation must choose host3.
	cl.Host(1).SetOwnerActive(true)
	k.Schedule(5*time.Second, func() { cl.Host(0).SetOwnerActive(true) })
	k.RunUntil(3 * time.Minute)
	if len(sys.Records()) != 1 || sys.Records()[0].To != 2 {
		t.Fatalf("records = %+v", sys.Records())
	}
}

func TestEvacuateWithNoDestinationLogsError(t *testing.T) {
	k, cl, sys := setup(t, 2)
	target := NewVPTarget(sys)
	w := spawnWorker(t, sys, 0, 30)
	target.Track(w.OrigTID())
	cl.Host(1).SetOwnerActive(true) // the only destination is owned
	sched := NewFleet(cl, target, DefaultFleetPolicy())
	sched.Start()
	k.Schedule(2*time.Second, func() { cl.Host(0).SetOwnerActive(true) })
	k.RunUntil(time.Minute)
	dec := sched.Decisions()
	if len(dec) != 1 || dec[0].Err == nil || dec[0].Moved != 0 {
		t.Fatalf("decisions = %+v", dec)
	}
	if len(sys.Records()) != 0 {
		t.Fatal("migrated to an owned host")
	}
}

func TestLoadThresholdRebalance(t *testing.T) {
	k, cl, sys := setup(t, 2)
	target := NewVPTarget(sys)
	// Two workers on host1, none on host2 + background load on host1.
	w1 := spawnWorker(t, sys, 0, 120)
	w2 := spawnWorker(t, sys, 0, 120)
	target.Track(w1.OrigTID())
	target.Track(w2.OrigTID())
	bg := cluster.NewBackgroundLoad(cl.Host(0))
	bg.Set(2)
	sched := NewFleet(cl, target, FleetPolicy{LoadThreshold: 2, PollInterval: 3 * time.Second})
	sched.Start()
	k.RunUntil(5 * time.Minute)
	if len(sys.Records()) == 0 {
		t.Fatal("load policy never migrated")
	}
	if sys.Records()[0].Reason != core.ReasonHighLoad {
		t.Fatalf("reason = %v", sys.Records()[0].Reason)
	}
	found := false
	for _, d := range sched.Decisions() {
		if d.Reason == core.ReasonHighLoad && d.Moved == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("decisions = %+v", sched.Decisions())
	}
}

func TestHostLoadCounting(t *testing.T) {
	k, _, sys := setup(t, 2)
	target := NewVPTarget(sys)
	w1 := spawnWorker(t, sys, 0, 1)
	w2 := spawnWorker(t, sys, 1, 1)
	target.Track(w1.OrigTID())
	target.Track(w2.OrigTID())
	if target.HostLoad(0) != 1 || target.HostLoad(1) != 1 {
		t.Fatalf("loads = %d, %d", target.HostLoad(0), target.HostLoad(1))
	}
	k.Run()
	// After completion the tasks exited and stop counting.
	if target.HostLoad(0) != 0 || target.HostLoad(1) != 0 {
		t.Fatalf("post-exit loads = %d, %d", target.HostLoad(0), target.HostLoad(1))
	}
}

func TestMoveOneNoVP(t *testing.T) {
	_, _, sys := setup(t, 2)
	target := NewVPTarget(sys)
	if err := target.MoveOne(0, 1, core.ReasonManual); err == nil {
		t.Fatal("MoveOne with no VPs succeeded")
	}
}

func TestSchedulerStop(t *testing.T) {
	k, cl, sys := setup(t, 2)
	target := NewVPTarget(sys)
	w := spawnWorker(t, sys, 0, 60)
	target.Track(w.OrigTID())
	sched := NewFleet(cl, target, DefaultFleetPolicy())
	sched.Start()
	sched.Stop()
	k.Schedule(5*time.Second, func() { cl.Host(0).SetOwnerActive(true) })
	k.RunUntil(2 * time.Minute)
	if len(sys.Records()) != 0 {
		t.Fatal("stopped scheduler still migrated")
	}
}
