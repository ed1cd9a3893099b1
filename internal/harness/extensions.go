package harness

import (
	"cmp"
	"fmt"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/metrics"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/upvm"
)

// The §5.0 comparison's one job and one eviction, shared by every policy:
// the Opt master on host 0, slaves on hosts 1 and 2, and host 2 reclaimed
// at 45 s.
const (
	evictHosts               = 3
	evictBytes               = 4_200_000
	evictIterations          = 12
	evictHost                = 2
	evictAt         sim.Time = 45 * time.Second
)

// CodeNoEviction marks an Extension A run whose eviction did not happen as
// its row says: the GS did not migrate exactly one slave off the victim, or
// the crash plan struck another host.
const CodeNoEviction errs.Code = "harness.no-eviction"

// evictionPolicy is one Extension A row: a policy's run with the eviction
// and without it. every is the coordinated-checkpoint period in
// iterations; 0 is migrate current state.
type evictionPolicy struct {
	name           string
	every          int
	evicted, quiet policyRun
}

// policyRun is what one run of a policy measured.
type policyRun struct {
	obtrusiveness, completion, lostWork sim.Time
	checkpoints                         int
	err                                 error
}

// evictionPolicies runs every Extension A policy with and without the
// eviction.
func evictionPolicies() []evictionPolicy {
	pols := []evictionPolicy{{name: "migrate current state"}, {name: "checkpoint every iteration", every: 1},
		{name: "checkpoint every 2 iterations", every: 2}, {name: "checkpoint every 4 iterations", every: 4}}
	for i, p := range pols {
		pols[i].evicted, pols[i].quiet = runPolicy(p.every, true), runPolicy(p.every, false)
	}
	return pols
}

// runPolicy runs the job once. Migrate current state is the MPVM
// owner-reclaim run: the owner returns and the GS evacuates the slave.
// Checkpointing is an FT run whose victim host crashes instead, Condor's
// kill: the job rolls back to its last committed checkpoint, and the slave
// restarts elsewhere.
func runPolicy(every int, evict bool) policyRun {
	if every == 0 {
		sc := Scenario{Hosts: evictHosts, Slaves: 2, SlaveHosts: []int{1, 2}, TotalBytes: evictBytes, Iterations: evictIterations}
		if !evict {
			out := RunMPVM(sc)
			return policyRun{completion: out.Elapsed, err: out.Err}
		}
		out, _ := OwnerReclaimScenario(sc, evictHost, evictAt)
		if out.Err == nil && len(out.Records) != 1 {
			out.Err = errs.Newf(CodeNoEviction, "%d migrations off host %d, want 1", len(out.Records), evictHost)
		}
		if out.Err != nil {
			return policyRun{err: out.Err}
		}
		return policyRun{obtrusiveness: out.Records[0].Obtrusiveness(), completion: out.Elapsed}
	}
	cfg := SurvivalConfig{Hosts: evictHosts, Slaves: 2, TotalBytes: evictBytes, Iterations: evictIterations,
		FT: ft.Config{CheckpointEvery: every}}
	if evict {
		// The plan's seeded pick among hosts 1 and 2 is host 2; the check
		// below holds it to that.
		cfg.Crashes, cfg.CrashFrom, cfg.CrashTo = 1, evictAt, evictAt
	}
	out := Survival(cfg)
	r := policyRun{completion: out.Elapsed, lostWork: out.LostWork, checkpoints: out.Checkpoints, err: out.Err}
	if evict && r.err == nil {
		if len(out.Crashes) != 1 || out.Crashes[0].Host != evictHost {
			return policyRun{err: errs.Newf(CodeNoEviction, "crashes %v, want one on host %d", out.Crashes, evictHost)}
		}
		r.obtrusiveness = out.Crashes[0].At - evictAt // the kill frees the host as it lands
	}
	return r
}

// ExtensionCheckpoint renders the checkpoint-vs-migrate comparison (the
// §5.0 Condor trade-off) on the stacks the rest of the repository runs.
func ExtensionCheckpoint() *metrics.Table {
	t := metrics.NewTable("Extension A. Eviction policy: migrate current state vs coordinated checkpoints (Opt, 3 hosts, 4.2 MB, 12 iterations, host 2 evicted at t=45 s)",
		"policy", "obtrusiveness (s)", "completion (s)", "no eviction (s)", "lost work (s)", "checkpoints")
	pols := evictionPolicies()
	for _, p := range pols {
		if err := cmp.Or(p.evicted.err, p.quiet.err); err != nil {
			t.AddNote("%s failed: %v", p.name, err)
			continue
		}
		t.AddRow(p.name, p.evicted.obtrusiveness.Seconds(), p.evicted.completion.Seconds(),
			p.quiet.completion.Seconds(), p.evicted.lostWork.Seconds(), p.evicted.checkpoints)
	}
	t.AddNote("checkpointing frees the host at once (migration holds it %.2f s) but finishes later end to end (checkpoint rounds + rolled-back work)",
		pols[0].evicted.obtrusiveness.Seconds())
	return t
}

// ExtensionGranularity compares redistribution granularity (paper §3.4): on
// a cluster where host 2 runs one competing job (halving its effective
// speed), MPVM's whole-process units cannot balance load — with one process
// per host and the data split evenly, the slow host gates every iteration —
// while UPVM's six slave ULPs can be placed 4:2 to match the 2:1 effective
// speed ratio.
func ExtensionGranularity() *metrics.Table {
	load := map[int]int{1: 1}
	coarse := RunMPVM(Scenario{
		TotalBytes: 4_200_000, Iterations: 6, BackgroundLoad: load,
	})
	fine := RunUPVM(Scenario{
		TotalBytes: 4_200_000, Iterations: 6, BackgroundLoad: load,
		Slaves: 6, SlaveHosts: []int{0, 0, 0, 0, 1, 1},
	})
	t := metrics.NewTable("Extension B. Redistribution granularity (one host at half speed, 4.2 MB)",
		"configuration", "runtime (s)")
	if runtimeRows(t, []string{"MPVM: 2 processes, data 1:1", "UPVM: 6 ULPs placed 4:2"}, coarse, fine) {
		t.AddNote("speedup %.2fx — finer ULPs match the 2:1 effective speed ratio (paper §3.4.2)",
			float64(coarse.Elapsed)/float64(fine.Elapsed))
	}
	return t
}

// runtimeRows adds one runtime row per run, named in order, or a note in a
// failed run's place, and reports whether every run succeeded.
func runtimeRows(t *metrics.Table, names []string, outs ...*Outcome) bool {
	ok := true
	for i, out := range outs {
		if out.Err != nil {
			t.AddNote("%s failed: %v", names[i], out.Err)
			ok = false
			continue
		}
		t.AddRow(names[i], out.Elapsed.Seconds())
	}
	return ok
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
		if r, ok := migration(t, fmt.Sprintf("utilization %.0f%%", u*100), out); ok {
			t.AddRow(int(u*100), r.Obtrusiveness().Seconds())
		}
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
		sc := table4Scenario
		sc.UPVM = c.cfg
		if r, ok := migration(t, c.name, RunUPVM(sc)); ok {
			t.AddRow(c.name, r.Obtrusiveness().Seconds(), r.Cost().Seconds())
		}
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
	if runtimeRows(t, []string{"static even split", "one rebalance event at t=8 s"}, static, rebalanced) {
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
	quiet := Scenario{TotalBytes: 600_000, Iterations: 4}
	direct := quiet
	direct.Direct = true
	runtimeRows(t, []string{"via the pvmds (default)", "task-to-task TCP (PvmRouteDirect)"}, RunPVM(quiet), RunPVM(direct))
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
		if r, ok := migration(t, fmt.Sprint("chunk ", chunk), out); ok {
			t.AddRow(chunk, r.Cost().Seconds(), out.Elapsed.Seconds())
		}
	}
	t.AddNote("the flag checks are cheap; responsiveness is what the chunk size buys")
	return t
}
