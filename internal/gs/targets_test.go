package gs

import (
	"testing"
	"time"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
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
	target := NewUPVMTarget(sys)
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

func TestADMTargetWithdrawSignal(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"))
	m := pvm.NewMachine(cl, pvm.Config{})

	stats := &opt.ADMStats{}
	ap := opt.ADMParams{
		Params: opt.Params{TotalBytes: 2_000_000, Iterations: 6},
		Stats:  stats,
	}
	masterTID := core.MakeTID(0, 2) // slave0 is local 1 on host0
	var slaveTasks []*pvm.Task
	tids := make([]core.TID, 2)
	for i := 0; i < 2; i++ {
		i := i
		task, err := m.Spawn(i, "adm-slave", func(task *pvm.Task) {
			q := adm.Attach(task)
			opt.RunADMSlave(task, masterTID, i, tids, q, ap)
		})
		if err != nil {
			t.Fatal(err)
		}
		slaveTasks = append(slaveTasks, task)
		tids[i] = task.Mytid()
	}
	var iterations int
	m.Spawn(0, "adm-master", func(task *pvm.Task) {
		res, err := opt.RunADMMaster(task, tids, ap)
		if err != nil {
			t.Errorf("master: %v", err)
			return
		}
		iterations = res.Iterations
	})

	target := NewADMTarget(slaveTasks, nil)
	if target.HostLoad(0) != 1 || target.HostLoad(1) != 1 {
		t.Fatalf("loads = %d, %d", target.HostLoad(0), target.HostLoad(1))
	}
	sched := NewFleet(cl, target, DefaultFleetPolicy())
	sched.Start()
	k.Schedule(8*time.Second, func() { cl.Host(1).SetOwnerActive(true) })
	k.RunUntil(20 * time.Minute)
	if iterations != 6 {
		t.Fatalf("application finished %d iterations; blocked: %v", iterations, k.Blocked())
	}
	if len(stats.Records) != 1 {
		t.Fatalf("withdrawals = %d", len(stats.Records))
	}
	if stats.Records[0].From != 1 {
		t.Fatalf("withdrew from host %d", stats.Records[0].From)
	}
	d := sched.Decisions()
	if len(d) != 1 || d[0].Moved != 1 || d[0].Err != nil {
		t.Fatalf("decisions = %+v", d)
	}
}

func TestADMTargetNoSlaveOnHost(t *testing.T) {
	target := NewADMTarget(nil, nil)
	if _, err := target.EvacuateHost(0, core.ReasonManual); err == nil {
		t.Fatal("evacuating empty host succeeded")
	}
	if err := target.MoveOne(0, 1, core.ReasonManual); err == nil {
		t.Fatal("rebalancing empty host succeeded")
	}
}

func TestManualEvacuate(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("a"), cluster.DefaultHostSpec("b"))
	sys := upvm.New(pvm.NewMachine(cl, pvm.Config{}), upvm.Config{})
	sys.Start("app", []upvm.ULPSpec{{Host: 1, DataBytes: 50_000}},
		func(u *upvm.ULP, rank int) { u.Compute(u.Host().Spec().Speed * 30) })
	target := NewUPVMTarget(sys)
	target.Track(0)
	sched := NewFleet(cl, target, FleetPolicy{}) // no automatic triggers
	sched.Start()
	k.Schedule(2_000_000_000, func() { sched.Evacuate(1, core.ReasonManual) })
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
	target := NewUPVMTarget(sys)
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
// crashed host, however idle it looks. UPVMTarget's own copy of the
// destination rule had lost the Alive() check its MPVM twin kept. Only the
// stage-1 order is asserted: the move itself then aborts at UPVM's flush
// barrier, because the crashed peer never acks and UPVM has no host-loss
// discount — ROADMAP item 5 (one protocol core), not this rule.
func TestUPVMEvacuationSkipsDeadHost(t *testing.T) {
	k := sim.NewKernel()
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
	target := NewUPVMTarget(sys)
	target.Track(0)
	target.Track(1)
	k.Schedule(time.Second, func() { cl.Host(1).Fail() })
	k.Schedule(2*time.Second, func() {
		if moved, err := target.EvacuateHost(0, core.ReasonOwnerReclaim); moved != 1 || err != nil {
			t.Errorf("EvacuateHost = %d, %v; want 1 move ordered", moved, err)
		}
	})
	k.RunUntil(time.Minute)
	if len(orders) != 1 || orders[0] != "migrate ULP0 to host2 (owner-reclaim)" {
		t.Fatalf("stage-1 orders = %q, want ULP0 sent to host2 (host1 is down)", orders)
	}
}
