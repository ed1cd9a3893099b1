package harness

import (
	"fmt"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// TestDayInTheLife runs the paper's whole premise for a simulated workday:
// a 4-workstation shared network with stochastic owner arrivals and
// departures, a global scheduler reclaiming owned machines, and a stream of
// parallel Opt jobs that must all complete correctly despite being chased
// around the cluster.
func TestDayInTheLife(t *testing.T) {
	const (
		nHosts  = 4
		nJobs   = 5
		nSlaves = 3
	)
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, nHosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("ws%d", i+1))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	m := pvm.NewMachine(cl, pvm.Config{})
	sys := mpvm.New(m, mpvm.Config{})
	target := gs.NewMPVMTarget(sys)
	sched := gs.NewFleet(cl, target, gs.DefaultFleetPolicy())
	sched.Start()

	// Owners come and go on every host except ws1, which is kept owner-free
	// so evacuations always have a refuge.
	for i := 1; i < nHosts; i++ {
		cluster.StartOwnerActivity(cl.Host(netsim.HostID(i)), uint64(100+i),
			8*time.Minute, 3*time.Minute)
	}

	completed := 0
	var submit func(job int)
	submit = func(job int) {
		if job >= nJobs {
			return
		}
		p := opt.Params{TotalBytes: 6_000_000, Iterations: 10, Seed: uint64(job)}
		// Spawn the master first so its tid is known to the slaves; bodies
		// only start after the virtual spawn cost, so filling the slave tid
		// slice synchronously below is safe.
		tids := make([]core.TID, nSlaves)
		master, err := sys.SpawnMigratable(0, fmt.Sprintf("job%d-master", job), 1<<20,
			func(mt *mpvm.MTask) {
				res, err := opt.RunMaster(mt.Task, tids, p)
				if err != nil {
					t.Errorf("job %d master: %v", job, err)
					return
				}
				if res.Iterations != p.Iterations {
					t.Errorf("job %d: %d iterations", job, res.Iterations)
				}
				completed++
				submit(job + 1)
			})
		if err != nil {
			t.Errorf("job %d: %v", job, err)
			return
		}
		target.Track(master.OrigTID())
		for i := 0; i < nSlaves; i++ {
			pp := p
			masterTID := master.OrigTID()
			mt, err := sys.SpawnMigratable(1+i%(nHosts-1), fmt.Sprintf("job%d-slave%d", job, i),
				pp.TotalBytes/nSlaves, func(mt *mpvm.MTask) {
					if err := opt.RunSlave(mt.Task, masterTID, pp); err != nil {
						t.Errorf("job %d slave %d: %v", job, i, err)
					}
				})
			if err != nil {
				t.Errorf("job %d: %v", job, err)
				return
			}
			tids[i] = mt.OrigTID()
			target.Track(mt.OrigTID())
		}
	}
	submit(0)
	k.RunUntil(8 * time.Hour)

	if completed != nJobs {
		t.Fatalf("completed %d of %d jobs; blocked: %v", completed, nJobs, k.Blocked())
	}
	// The churn must have caused real scheduler activity.
	if len(sched.Decisions()) == 0 {
		t.Fatal("no scheduler decisions over a full day of owner churn")
	}
	if len(sys.Records()) == 0 {
		t.Fatal("no migrations over a full day of owner churn")
	}
	for h := 0; h < nHosts; h++ {
		if held := m.Daemon(h).HeldMessages(); len(held) != 0 {
			t.Fatalf("%d messages stranded at daemon %d", len(held), h)
		}
	}
	for _, r := range sys.Records() {
		if r.Obtrusiveness() <= 0 || r.Cost() < r.Obtrusiveness() {
			t.Fatalf("bad migration record: %+v", r)
		}
	}
	t.Logf("day-in-the-life: %d jobs, %d scheduler decisions, %d migrations",
		completed, len(sched.Decisions()), len(sys.Records()))
}

// TestDayInTheLifeDeterministic re-runs the scenario and demands identical
// results — the reproducibility guarantee of the simulation substrate.
func TestDayInTheLifeDeterministic(t *testing.T) {
	run := func() (int, int) {
		k := sim.NewKernel()
		cl := cluster.New(k, netsim.Params{},
			cluster.DefaultHostSpec("a"), cluster.DefaultHostSpec("b"), cluster.DefaultHostSpec("c"))
		m := pvm.NewMachine(cl, pvm.Config{})
		sys := mpvm.New(m, mpvm.Config{})
		target := gs.NewMPVMTarget(sys)
		sched := gs.NewFleet(cl, target, gs.DefaultFleetPolicy())
		sched.Start()
		for i := 1; i < 3; i++ {
			cluster.StartOwnerActivity(cl.Host(netsim.HostID(i)), uint64(7+i),
				5*time.Minute, 2*time.Minute)
		}
		p := opt.Params{TotalBytes: 2_000_000, Iterations: 8}
		tids := make([]core.TID, 2)
		master, _ := sys.SpawnMigratable(0, "master", 1<<20, func(mt *mpvm.MTask) {
			opt.RunMaster(mt.Task, tids, p)
		})
		target.Track(master.OrigTID())
		for i := 0; i < 2; i++ {
			mt, _ := sys.SpawnMigratable(1+i, fmt.Sprintf("slave%d", i),
				p.TotalBytes/2, func(mt *mpvm.MTask) {
					opt.RunSlave(mt.Task, master.OrigTID(), p)
				})
			tids[i] = mt.OrigTID()
			target.Track(mt.OrigTID())
		}
		k.RunUntil(2 * time.Hour)
		return len(sys.Records()), len(sched.Decisions())
	}
	m1, d1 := run()
	m2, d2 := run()
	if m1 != m2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", m1, d1, m2, d2)
	}
}
