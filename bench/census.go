package main

import (
	"fmt"
	"time"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/upvm"
)

// harness.RunPVM/RunMPVM/RunUPVM/RunADM own their kernel, so how many
// events a run dispatched and how often it crossed the AwaitExternal bridge
// cannot be read from outside. The census functions below run the same
// scenarios assembled from the same exported constructors, on the paper's
// two-host topology only (a master and one slave on host 0, one slave on
// host 1, the last slave migrating to host 0), and return the kernel's
// counters. They are never timed: the traced pass calls them once, because
// the counts are a pure function of the scenario. TestCensusParity holds
// each twin's elapsed time and migration records equal to the harness run.

const (
	censusHosts  = 2
	censusSlaves = 2
)

// kernelCount is what a census reads off a finished kernel.
type kernelCount struct {
	events        uint64
	externalWaits uint64
}

func (c *kernelCount) add(k *sim.Kernel) {
	c.events += k.EventsScheduled()
	c.externalWaits += k.ExternalWaits()
}

// censusMasterTID is the master's tid: spawned on host 0 after that host's
// one slave.
var censusMasterTID = core.MakeTID(0, 2)

func censusMachine(wire netsim.Wire) (*sim.Kernel, *pvm.Machine) {
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, censusHosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("host%d", i+1))
	}
	cl := cluster.New(k, netsim.Params{Wire: wire}, specs...)
	return k, pvm.NewMachine(cl, pvm.Config{})
}

func censusParams(sc harness.Scenario) opt.Params {
	return opt.Params{TotalBytes: sc.TotalBytes, Iterations: sc.Iterations, Seed: sc.Seed}
}

// note keeps the first error of a run, as harness.Outcome.Err does.
func note(out *harness.Outcome, err error) {
	if err != nil && out.Err == nil {
		out.Err = err
	}
}

func censusPVM(sc harness.Scenario) (*harness.Outcome, *sim.Kernel) {
	k, m := censusMachine(sc.Wire)
	out := &harness.Outcome{}
	p := censusParams(sc)
	tids := make([]core.TID, censusSlaves)
	for i := range tids {
		t, err := m.Spawn(i, fmt.Sprintf("opt-slave%d", i), func(t *pvm.Task) {
			note(out, opt.RunSlave(t, censusMasterTID, p))
		})
		if err != nil {
			out.Err = err
			return out, k
		}
		tids[i] = t.Mytid()
	}
	_, err := m.Spawn(0, "opt-master", func(t *pvm.Task) {
		res, err := opt.RunMaster(t, tids, p)
		out.Result = res
		note(out, err)
		out.Elapsed = t.Proc().Now()
	})
	note(out, err)
	if err == nil {
		k.Run()
	}
	return out, k
}

func censusMPVM(sc harness.Scenario) (*harness.Outcome, *sim.Kernel) {
	k, m := censusMachine(sc.Wire)
	sys := mpvm.New(m, mpvm.Config{})
	out := &harness.Outcome{}
	tids := make([]core.TID, censusSlaves)
	mts := make([]*mpvm.MTask, censusSlaves)
	for i := range tids {
		p := censusParams(sc)
		var self *mpvm.MTask
		p.OnStateBytes = func(n int) {
			if self != nil {
				self.SetStateBytes(n)
			}
		}
		mt, err := sys.SpawnMigratable(i, fmt.Sprintf("opt-slave%d", i), 0, func(mt *mpvm.MTask) {
			note(out, opt.RunSlave(mt.Task, censusMasterTID, p))
		})
		if err != nil {
			out.Err = err
			return out, k
		}
		self = mt
		mts[i], tids[i] = mt, mt.OrigTID()
	}
	mp := censusParams(sc)
	_, err := sys.SpawnMigratable(0, "opt-master", 1<<20, func(mt *mpvm.MTask) {
		res, err := opt.RunMaster(mt.Task, tids, mp)
		out.Result = res
		note(out, err)
		out.Elapsed = mt.Proc().Now()
	})
	if err != nil {
		out.Err = err
		return out, k
	}
	if sc.MigrateAt > 0 {
		migrate := sys.Migrate
		if sc.Warm {
			migrate = sys.MigrateWarm
		}
		k.Schedule(sc.MigrateAt, func() {
			note(out, migrate(mts[censusSlaves-1].OrigTID(), sc.MigrateTo, core.ReasonOwnerReclaim))
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out, k
}

func censusUPVM(sc harness.Scenario) (*harness.Outcome, *sim.Kernel) {
	k, m := censusMachine(sc.Wire)
	sys := upvm.New(m, upvm.Config{})
	out := &harness.Outcome{}
	p := censusParams(sc)
	netBytes := p.Cost().NetBytes()
	specs := []upvm.ULPSpec{{Host: 0, DataBytes: netBytes * 4, StackBytes: 64 << 10}}
	slaveTIDs := make([]core.TID, censusSlaves)
	for i := range slaveTIDs {
		specs = append(specs, upvm.ULPSpec{Host: i, DataBytes: sc.TotalBytes/censusSlaves + netBytes, StackBytes: 64 << 10})
		slaveTIDs[i] = upvm.ULPTID(i + 1)
	}
	_, err := sys.Start("opt", specs, func(u *upvm.ULP, rank int) {
		if rank != 0 {
			note(out, opt.RunSlave(u, upvm.ULPTID(0), p))
			return
		}
		res, err := opt.RunMaster(u, slaveTIDs, p)
		out.Result = res
		note(out, err)
		out.Elapsed = u.Proc().Now()
	})
	if err != nil {
		out.Err = err
		return out, k
	}
	if sc.MigrateAt > 0 {
		k.Schedule(sc.MigrateAt, func() {
			note(out, sys.Migrate(censusSlaves, sc.MigrateTo, core.ReasonOwnerReclaim))
		})
	}
	k.Run()
	out.Records = sys.Records()
	return out, k
}

func censusADM(sc harness.Scenario) (*harness.Outcome, *sim.Kernel) {
	k, m := censusMachine(sc.Wire)
	out := &harness.Outcome{}
	stats := &opt.ADMStats{}
	ap := opt.ADMParams{Params: censusParams(sc), Stats: stats}
	tasks := make([]*pvm.Task, censusSlaves)
	tids := make([]core.TID, censusSlaves)
	for i := range tasks {
		i := i
		t, err := m.Spawn(i, fmt.Sprintf("admopt-slave%d", i), func(t *pvm.Task) {
			note(out, opt.RunADMSlave(t, censusMasterTID, i, tids, adm.Attach(t), ap))
		})
		if err != nil {
			out.Err = err
			return out, k
		}
		tasks[i], tids[i] = t, t.Mytid()
	}
	_, err := m.Spawn(0, "admopt-master", func(t *pvm.Task) {
		res, err := opt.RunADMMaster(t, tids, ap)
		out.Result = res
		note(out, err)
		out.Elapsed = t.Proc().Now()
	})
	if err != nil {
		out.Err = err
		return out, k
	}
	if sc.MigrateAt > 0 {
		k.Schedule(sc.MigrateAt, func() {
			adm.Signal(tasks[censusSlaves-1], adm.Event{Kind: "withdraw", Reason: core.ReasonOwnerReclaim})
		})
	}
	k.Run()
	out.Records = stats.Records
	return out, k
}

// paperCensus counts one regeneration of the paper's tables (RawTCP's six
// bare transfers excluded: a few dozen events each).
func paperCensus(seed uint64) kernelCount {
	var c kernelCount
	run := func(fn func(harness.Scenario) (*harness.Outcome, *sim.Kernel), sc harness.Scenario) {
		_, k := fn(sc)
		c.add(k)
	}
	t1, t3 := harness.Table1Scenario, harness.Table3Scenario
	t1.Seed, t3.Seed = seed, seed
	run(censusPVM, t1)
	run(censusMPVM, t1)
	run(censusPVM, t3)
	run(censusUPVM, t3)
	run(censusUPVM, table4Scenario(seed))
	run(censusPVM, t1)
	run(censusADM, t1)
	for _, total := range harness.Table2Sizes {
		run(censusMPVM, sweepScenario(total, 8, seed))
		run(censusUPVM, sweepScenario(total, 10, seed))
		run(censusADM, sweepScenario(total, 8, seed))
	}
	return c
}

// wireCensus counts one pass of the wire legs over real sockets, where
// every delivered frame is one AwaitExternal crossing.
func wireCensus(legs []wireLeg) kernelCount {
	var c kernelCount
	for _, leg := range legs {
		be := netwire.New()
		sc := leg.sc
		sc.Wire = be
		twin := censusMPVM
		if leg.span == "upvm.migrate_run" {
			twin = censusUPVM
		}
		_, k := twin(sc)
		be.Shutdown()
		c.add(k)
	}
	return c
}

// kernelFloorNs is the cost of the bare event loop: the mean host ns per
// event when a kernel dispatches `events` no-op events (64 self-renewing
// timers, so the heap stays as shallow as a real run's). Median of five.
func kernelFloorNs(events int) float64 {
	if events <= 0 {
		return 0
	}
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		k := sim.NewKernel()
		left := events
		var tick func()
		tick = func() {
			if left > 0 {
				left--
				k.Schedule(1, tick)
			}
		}
		kBefore := calibrate()
		start := time.Now()
		for i := 0; i < 64 && left > 0; i++ {
			left--
			k.Schedule(sim.Time(i+1), tick)
		}
		k.Run()
		wall := time.Since(start)
		reps = append(reps, float64(calibrated(wall, kBefore, calibrate()))/float64(k.EventsScheduled()))
	}
	return median(reps)
}
