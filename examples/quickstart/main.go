// Quickstart: build a simulated two-workstation network, start a PVM
// machine with MPVM migration support, exchange messages between two tasks,
// then transparently migrate one of them mid-computation and watch the
// four-stage protocol in the trace.
package main

import (
	"fmt"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/pvm"
)

func main() {
	// A kernel, two calibrated HP 9000/720-class hosts on 10 Mb/s Ethernet,
	// a PVM machine, and the MPVM migration layer on top, tracing the
	// migration protocol's stages.
	w := harness.NewWorld(harness.WorldSpec{
		Hosts:  harness.Workstations(2, "host%d", 1),
		System: harness.MPVM,
		Trace:  true,
	})
	defer w.Close()
	k, machine, sys := w.K, w.Machine, w.MPVM

	// A worker that alternates computing and reporting to a collector.
	collectorTID := core.MakeTID(0, 1)
	worker, err := sys.SpawnMigratable(1, "worker", 2<<20, func(mt *mpvm.MTask) {
		for i := 0; i < 6; i++ {
			// 5 s of virtual floating-point work per phase.
			if err := mt.Compute(mt.Host().Spec().Speed * 5); err != nil {
				return
			}
			buf := core.NewBuffer().PkInt(i).PkString(mt.Host().Name())
			if err := mt.Send(collectorTID, 1, buf); err != nil {
				return
			}
		}
	})
	if err != nil {
		panic(err)
	}

	machine.Spawn(0, "collector", func(t *pvm.Task) {
		for i := 0; i < 6; i++ {
			_, _, r, err := t.Recv(core.AnyTID, 1)
			if err != nil {
				return
			}
			phase, host := r.UpkInt(), r.UpkString()
			if r.Err() != nil {
				return
			}
			fmt.Printf("[%7.2fs] phase %d completed on %s\n",
				t.Proc().Now().Seconds(), phase, host)
		}
	})

	// Mid-run, the global scheduler decides host2 must be vacated.
	k.Schedule(12*time.Second, func() {
		fmt.Printf("[%7.2fs] GS: migrate worker off host2\n", k.Now().Seconds())
		if err := sys.Migrate(worker.OrigTID(), 0, core.ReasonOwnerReclaim); err != nil {
			fmt.Println("migrate failed:", err)
		}
	})

	k.Run()

	fmt.Println()
	fmt.Print(w.Log.Timeline("MPVM migration protocol stages:"))
	for _, r := range sys.Records() {
		fmt.Printf("\nmigrated %v → %v: obtrusiveness %.2f s, migration cost %.2f s, %d KB of state\n",
			r.VP, r.NewTID, r.Obtrusiveness().Seconds(), r.Cost().Seconds(), r.StateBytes>>10)
	}
}
