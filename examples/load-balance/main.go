// Load-threshold rebalancing: the paper's second migration trigger
// ("excessively high machine load"). A competing job appears on one
// workstation; the Global Scheduler's polling policy notices the imbalance
// and shifts a VP away, and the run finishes faster than it would have with
// static placement.
package main

import (
	"fmt"
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

// run executes a 2-slave Opt job on 3 hosts where host2 gains a competing
// job at t=10 s; with balancing enabled the GS may move the affected slave
// to the idle host3.
func run(balance bool) (sim.Time, []gs.Decision, []core.MigrationRecord) {
	k := sim.NewKernel()
	defer k.Close()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("host1"),
		cluster.DefaultHostSpec("host2"),
		cluster.DefaultHostSpec("host3"))
	m := pvm.NewMachine(cl, pvm.Config{})
	sys := mpvm.New(m, mpvm.Config{})
	target := gs.NewMPVMTarget(sys)
	var sched *gs.Fleet
	if balance {
		sched = gs.NewFleet(cl, target, gs.FleetPolicy{LoadThreshold: 1, PollInterval: 5 * time.Second})
		sched.Start()
	}

	p := opt.Params{TotalBytes: 6_000_000, Iterations: 6}
	tids := make([]core.TID, 2)
	var elapsed sim.Time
	master, _ := sys.SpawnMigratable(0, "master", 1<<20, func(mt *mpvm.MTask) {
		opt.RunMaster(mt.Task, tids, p)
		elapsed = mt.Proc().Now()
	})
	for i := 0; i < 2; i++ {
		pp := p
		mt, _ := sys.SpawnMigratable(i, fmt.Sprintf("slave%d", i), p.TotalBytes/2,
			func(mt *mpvm.MTask) { opt.RunSlave(mt.Task, master.OrigTID(), pp) })
		tids[i] = mt.OrigTID()
		target.Track(mt.OrigTID())
	}
	// A competing job lands on host2 (index 1) and stays.
	k.Schedule(10*time.Second, func() {
		cluster.NewBackgroundLoad(cl.Host(1)).Set(2)
	})
	k.RunUntil(time.Hour)
	var decisions []gs.Decision
	if sched != nil {
		decisions = sched.Decisions()
	}
	return elapsed, decisions, sys.Records()
}

func main() {
	fmt.Println("Opt on 3 workstations; at t=10s two competing jobs appear on host2.")
	fmt.Println()
	static, _, _ := run(false)
	fmt.Printf("static placement:      finished in %.1f s (the loaded host gates every iteration)\n",
		static.Seconds())
	balanced, decisions, records := run(true)
	fmt.Printf("with load balancing:   finished in %.1f s\n\n", balanced.Seconds())
	for _, d := range decisions {
		if d.Moved > 0 {
			fmt.Printf("[%7.2fs] GS: host%d over threshold → move one VP to host%d\n",
				d.At.Seconds(), d.Host+1, d.Dest+1)
		}
	}
	for _, r := range records {
		fmt.Printf("[%7.2fs] migrated %v host%d → host%d (obtrusiveness %.2f s)\n",
			r.Reintegrated.Seconds(), r.VP, r.From+1, r.To+1, r.Obtrusiveness().Seconds())
	}
	fmt.Printf("\nspeedup from one migration: %.2fx\n", static.Seconds()/balanced.Seconds())
}
