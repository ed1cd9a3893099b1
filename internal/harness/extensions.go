package harness

import (
	"time"

	"pvmigrate/internal/checkpoint"
	"pvmigrate/internal/metrics"
	"pvmigrate/internal/upvm"
)

// ExtensionCheckpoint renders the checkpoint-vs-migrate comparison (the
// §5.0 Condor trade-off).
func ExtensionCheckpoint() *metrics.Table {
	t := metrics.NewTable("Extension A. Eviction policy: migrate current state vs periodic checkpoints (300 s job, 4 MB image, evicted at t=150 s)",
		"policy", "obtrusiveness (s)", "completion (s)", "lost work (Mflop)", "checkpoints")
	evict := 150 * time.Second
	mg, err := checkpoint.RunMigrateCurrent(evict)
	if err == nil {
		t.AddRow("migrate current state", mg.Obtrusiveness.Seconds(), mg.Completion.Seconds(),
			mg.LostWorkFlops/1e6, 0)
	}
	for _, interval := range []time.Duration{20 * time.Second, time.Minute, 4 * time.Minute} {
		ck, err := checkpoint.RunCheckpointed(checkpoint.Params{Interval: interval}, evict)
		if err != nil {
			t.AddNote("checkpoint %v failed: %v", interval, err)
			continue
		}
		t.AddRow("checkpoint every "+interval.String(), ck.Obtrusiveness.Seconds(),
			ck.Completion.Seconds(), ck.LostWorkFlops/1e6, ck.Checkpoints)
	}
	t.AddNote("checkpointing: ~70x less obtrusive, always slower end to end (freezes + redone work)")
	return t
}

// ExtensionGranularity renders the §3.4 granularity experiment.
func ExtensionGranularity() *metrics.Table {
	res := GranularityExperiment()
	t := metrics.NewTable("Extension B. Redistribution granularity (one host at half speed, 4.2 MB)",
		"configuration", "runtime (s)")
	t.AddRow("MPVM: 2 processes, data 1:1", res.MPVMCoarse.Seconds())
	t.AddRow("UPVM: 6 ULPs placed 4:2", res.UPVMFine.Seconds())
	t.AddNote("speedup %.2fx — finer ULPs match the 2:1 effective speed ratio (paper §3.4.2)",
		float64(res.MPVMCoarse)/float64(res.UPVMFine))
	return t
}

// ExtensionCrossTraffic renders MPVM migration under Ethernet contention.
func ExtensionCrossTraffic() *metrics.Table {
	t := metrics.NewTable("Extension C. MPVM migration under Ethernet cross-traffic (4.2 MB)",
		"wire busy", "obtrusiveness (s)")
	for _, u := range []float64{0, 0.3, 0.6} {
		out := RunMPVM(Scenario{
			TotalBytes: 4_200_000, Iterations: 10,
			MigrateAt: 8 * time.Second, MigrateTo: 0,
			CrossTraffic: u,
		})
		if out.Err != nil || len(out.Records) != 1 {
			t.AddNote("utilization %.0f%% failed", u*100)
			continue
		}
		t.AddRow(int(u*100), out.Records[0].Obtrusiveness().Seconds())
	}
	t.AddNote("the state transfer competes with background frames (paper §1.0's fluctuating bandwidth)")
	return t
}

// ExtensionUPVMTuned renders the prototype-vs-tuned UPVM accept comparison.
func ExtensionUPVMTuned() *metrics.Table {
	t := metrics.NewTable("Extension D. UPVM migration: 1994 prototype vs tuned implementation (0.6 MB)",
		"implementation", "obtrusiveness (s)", "migration (s)")
	configs := []struct {
		name string
		cfg  *upvm.Config
	}{
		{"prototype (fitted to Table 4)", nil},
		{"tuned (wire-speed xfer, memcpy accept)", &upvm.Config{XferBps: 950e3, AcceptBps: 12e6}},
	}
	for _, c := range configs {
		out := RunUPVM(Scenario{
			TotalBytes: 600_000, Iterations: 6,
			MigrateAt: 2 * time.Second, MigrateTo: 0,
			UPVM: c.cfg,
		})
		if out.Err != nil || len(out.Records) != 1 {
			t.AddNote("%s failed", c.name)
			continue
		}
		r := out.Records[0]
		t.AddRow(c.name, r.Obtrusiveness().Seconds(), r.Cost().Seconds())
	}
	t.AddNote("the optimization the authors reported as in progress (§4.2.3)")
	return t
}

// ExtensionADMRebalance quantifies ADM's load-balancing accuracy (§3.4.3):
// with one host at half effective speed, a single rebalance event
// repartitions the exemplars in proportion to machine power, and the run
// finishes markedly sooner than with the static even split.
func ExtensionADMRebalance() *metrics.Table {
	load := map[int]int{1: 1}
	static := RunADM(Scenario{
		TotalBytes: 4_200_000, Iterations: 8, BackgroundLoad: load,
	})
	rebalanced := RunADM(Scenario{
		TotalBytes: 4_200_000, Iterations: 8, BackgroundLoad: load,
		MigrateAt: 8 * time.Second, MigrateSlave: 1, ADMRebalance: true,
	})
	t := metrics.NewTable("Extension E. ADM power-weighted rebalancing (one host at half speed, 4.2 MB)",
		"configuration", "runtime (s)")
	if static.Err == nil {
		t.AddRow("static even split", static.Elapsed.Seconds())
	}
	if rebalanced.Err == nil {
		t.AddRow("one rebalance event at t=8 s", rebalanced.Elapsed.Seconds())
	}
	if static.Err == nil && rebalanced.Err == nil {
		t.AddNote("speedup %.2fx — data shifted 2:1 to match effective speeds (paper §3.4.3)",
			static.Elapsed.Seconds()/rebalanced.Elapsed.Seconds())
	}
	return t
}

// ExtensionRoute compares the Opt quiet case under PVM's two routing
// modes: every data message via the pvmds (the default) versus
// task-to-task TCP (PvmRouteDirect).
func ExtensionRoute() *metrics.Table {
	t := metrics.NewTable("Extension F. PVM message routing: daemon route vs direct TCP (0.6 MB, quiet)",
		"route", "runtime (s)")
	for _, direct := range []bool{false, true} {
		name := "via the pvmds (default)"
		if direct {
			name = "task-to-task TCP (PvmRouteDirect)"
		}
		out := RunPVM(Scenario{TotalBytes: 600_000, Iterations: 4, Direct: direct})
		if out.Err != nil {
			t.AddNote("%s failed: %v", name, out.Err)
			continue
		}
		t.AddRow(name, out.Elapsed.Seconds())
	}
	t.AddNote("within 1%%: the direct route costs a fixed ~0.09 s at start-up and wins back ~2 ms per iteration")
	return t
}

// ExtensionADMChunk sweeps ADMopt's inner-loop granularity (§2.3's rapid
// response requirement): a smaller chunk reaches the event-flag check
// sooner, so a withdrawal costs less; the run itself barely notices.
func ExtensionADMChunk() *metrics.Table {
	t := metrics.NewTable("Extension G. ADM inner-loop chunk size (4.2 MB, one withdrawal at t=6 s)",
		"chunk (exemplars)", "withdrawal (s)", "runtime (s)")
	for _, chunk := range []int{25, 100, 400, 1600} {
		out := RunADM(Scenario{
			TotalBytes: 4_200_000, Iterations: 8,
			MigrateAt: 6 * time.Second, ADMChunk: chunk,
		})
		if out.Err != nil || len(out.Records) != 1 {
			t.AddNote("chunk %d failed", chunk)
			continue
		}
		t.AddRow(chunk, out.Records[0].Cost().Seconds(), out.Elapsed.Seconds())
	}
	t.AddNote("the flag checks are cheap; responsiveness is what the chunk size buys")
	return t
}
