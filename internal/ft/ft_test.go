package ft

import (
	"math"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
)

func buildRig(t *testing.T, hosts int) (*sim.Kernel, *cluster.Cluster, *pvm.Machine, *mpvm.System) {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("h")
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	m := pvm.NewMachine(cl, pvm.Config{})
	return k, cl, m, mpvm.New(m, mpvm.Config{})
}

func TestCrashPlanDeterministic(t *testing.T) {
	cands := []int{1, 2, 3, 4, 5, 6, 7}
	from, to := 5*time.Second, 20*time.Second
	a := CrashPlan(99, cands, 3, from, to, 0)
	b := CrashPlan(99, cands, 3, from, to, 0)
	if len(a.Faults) != 3 {
		t.Fatalf("want 3 faults, got %d", len(a.Faults))
	}
	seen := map[int]bool{}
	for i, f := range a.Faults {
		if f.At != b.Faults[i].At || f.Host != b.Faults[i].Host || f.Kind != b.Faults[i].Kind {
			t.Errorf("fault %d not deterministic: %+v vs %+v", i, f, b.Faults[i])
		}
		if f.At < from || f.At >= to {
			t.Errorf("fault %d time %v outside [%v,%v)", i, f.At, from, to)
		}
		if seen[f.Host] {
			t.Errorf("host %d crashed twice in one plan", f.Host)
		}
		seen[f.Host] = true
		if i > 0 && f.At < a.Faults[i-1].At {
			t.Errorf("plan not time-ordered at %d", i)
		}
	}
	if c := CrashPlan(100, cands, 9, from, to, 0); len(c.Faults) != len(cands) {
		t.Errorf("k beyond candidates should clamp: got %d", len(c.Faults))
	}
}

// TestHeartbeatDetectionAndRejoin drives the full detection path: a crashed
// host falls silent and is declared dead within the heartbeat bound; after
// revival its beats resume and the GS takes it back.
func TestHeartbeatDetectionAndRejoin(t *testing.T) {
	k, _, _, sys := buildRig(t, 3)
	st := NewStack(sys, Config{}, gs.FleetPolicy{}, &trace.Log{})
	sched := st.Sched
	sched.Start()

	st.Inj.Install(Plan{Faults: []Fault{
		{At: 3 * time.Second, Kind: HostCrash, Host: 2, Outage: 10 * time.Second},
	}})

	var deadAt, rejoinAt sim.Time
	k.Schedule(8*time.Second, func() {
		if d := sched.DeadHosts(); len(d) == 1 && d[0] == 2 {
			deadAt = k.Now()
		} else {
			t.Errorf("at 8s expected host 2 dead, got %v", d)
		}
	})
	k.Schedule(20*time.Second, func() {
		if d := sched.DeadHosts(); len(d) == 0 {
			rejoinAt = k.Now()
		} else {
			t.Errorf("at 20s expected rejoin, still dead: %v", d)
		}
		k.Stop()
	})
	k.RunUntil(time.Minute)

	if deadAt == 0 || rejoinAt == 0 {
		t.Fatal("detection or rejoin never happened")
	}
	var sawFail, sawRejoin bool
	for _, d := range sched.Decisions() {
		switch d.Reason {
		case "host-failure":
			sawFail = sawFail || d.Host == 2
		case "host-rejoin":
			sawRejoin = sawRejoin || d.Host == 2
		}
	}
	if !sawFail || !sawRejoin {
		t.Errorf("decisions missing failure/rejoin for host 2: %+v", sched.Decisions())
	}
}

// TestReclaimedHostIsNotDeclaredDead checks the reclaim-vs-lost
// distinction: an owner-reclaimed host keeps its daemon beating, so the
// detector must never declare it dead.
func TestReclaimedHostIsNotDeclaredDead(t *testing.T) {
	k, cl, _, sys := buildRig(t, 2)
	sched := NewStack(sys, Config{}, gs.FleetPolicy{}, nil).Sched
	sched.Start()
	k.Schedule(2*time.Second, func() { cl.Host(1).SetOwnerActive(true) })
	k.Schedule(30*time.Second, func() { k.Stop() })
	k.RunUntil(time.Minute)
	if d := sched.DeadHosts(); len(d) != 0 {
		t.Errorf("owner-reclaimed host declared dead: %v", d)
	}
}

// runCrashJob is the crash-and-recover scenario: a small cost-model FT job
// (no real data, sizes only) on four hosts whose slave host 2 crashes
// mid-run. assemble builds the FT/GS stack over the fresh system.
func runCrashJob(t *testing.T, assemble func(*mpvm.System, *trace.Log) *Stack) (*Stack, *trace.Log, *JobResult) {
	t.Helper()
	k, _, _, sys := buildRig(t, 4)
	log := &trace.Log{}
	st := assemble(sys, log)
	st.Inj.Install(Plan{Faults: []Fault{{At: 6 * time.Second, Kind: HostCrash, Host: 2}}})

	job, err := StartJob(st.Mgr, JobSpec{
		Opt:        opt.Params{TotalBytes: 400_000, Iterations: 8},
		MasterHost: 0,
		SlaveHosts: []int{1, 2, 3, 1, 2, 3},
		OnFinish:   func(*JobResult) { k.Stop() },
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Sched.Start()
	k.RunUntil(10 * time.Minute)
	return st, log, job.Out()
}

func stackOf(sys *mpvm.System, log *trace.Log) *Stack {
	return NewStack(sys, Config{CheckpointEvery: 2}, gs.FleetPolicy{}, log)
}

// TestNewStackMatchesHandAssembly pins NewStack to the assembly every rig
// used to spell out by hand: the same crash-and-recover run built both ways
// yields the same trace, decisions and loss.
func TestNewStackMatchesHandAssembly(t *testing.T) {
	byHand := func(sys *mpvm.System, log *trace.Log) *Stack {
		m := sys.Machine()
		mgr := NewManager(sys, Config{CheckpointEvery: 2}, log)
		det := StartHeartbeats(m.Cluster(), 0, HeartbeatInterval)
		sched := gs.NewFleet(m.Cluster(), mgr, gs.FleetPolicy{
			HeartbeatInterval: HeartbeatInterval,
			SuspectAfter:      SuspectAfter,
		})
		sched.SetHeartbeatSource(det)
		inj := NewInjector(m, log)
		inj.OnFault(mgr.ObserveFault)
		return &Stack{Mgr: mgr, Sched: sched, Inj: inj}
	}
	as, alog, ares := runCrashJob(t, stackOf)
	bs, blog, bres := runCrashJob(t, byHand)
	if a, b := alog.Timeline(""), blog.Timeline(""); a != b {
		t.Errorf("trace timelines differ:\n%s\nvs\n%s", a, b)
	}
	if a, b := as.Sched.Fingerprint(), bs.Sched.Fingerprint(); a != b {
		t.Errorf("decision fingerprints differ: %#x vs %#x", a, b)
	}
	if !ares.Done || !bres.Done || len(as.Mgr.Records()) != 1 {
		t.Fatalf("runs did not recover: done %v/%v, records %+v", ares.Done, bres.Done, as.Mgr.Records())
	}
	if a, b := math.Float64bits(ares.Result.FinalLoss), math.Float64bits(bres.Result.FinalLoss); a != b {
		t.Errorf("loss bits differ: %#x vs %#x", a, b)
	}
	if ares.FinishedAt != bres.FinishedAt {
		t.Errorf("finish times differ: %v vs %v", ares.FinishedAt, bres.FinishedAt)
	}
}

// TestJobRecoversFromCrash expects the crash-and-recover run to complete
// with a bounded rollback.
func TestJobRecoversFromCrash(t *testing.T) {
	st, log, res := runCrashJob(t, stackOf)
	mgr := st.Mgr
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	if !res.Done {
		t.Fatal("job did not complete within the cap")
	}
	if res.Result.Iterations != 8 {
		t.Errorf("iterations: got %d want 8", res.Result.Iterations)
	}
	recs := mgr.Records()
	if len(recs) != 1 {
		t.Fatalf("expected 1 recovery record, got %+v", recs)
	}
	r := recs[0]
	if r.Host != 2 || r.RespawnedVPs != 2 {
		t.Errorf("recovery record wrong: %+v", r)
	}
	if r.RecoveredAt == 0 || r.LostIterations > 2 || r.LostIterations < 0 {
		t.Errorf("rollback out of bounds: %+v", r)
	}
	if mgr.Checkpoints() == 0 || mgr.Store().Writes() == 0 {
		t.Error("no checkpoints committed")
	}
	// The trace should show the full recovery arc.
	stages := map[string]bool{}
	for _, s := range log.Stages() {
		stages[s] = true
	}
	for _, want := range []string{"fault:host-crash", "ft:host-dead", "ft:rollback",
		"ft:respawn-ready", "ft:recovered", "ckpt:flush", "ckpt:commit"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q; have %v", want, log.Stages())
		}
	}
}

// TestMasterHostLossIsUnrecoverable: losing the host that carries the
// master (and the store) must surface as an error decision, not hang.
func TestMasterHostLossIsUnrecoverable(t *testing.T) {
	k, _, _, sys := buildRig(t, 3)
	st := NewStack(sys, Config{}, gs.FleetPolicy{}, nil)
	sched := st.Sched
	_, err := StartJob(st.Mgr, JobSpec{
		Opt:        opt.Params{TotalBytes: 200_000, Iterations: 50},
		MasterHost: 1, // deliberately apart from the GS/store host 0
		SlaveHosts: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	st.Inj.Install(Plan{Faults: []Fault{
		{At: 4 * time.Second, Kind: HostCrash, Host: 1},
	}})
	k.Schedule(15*time.Second, func() { k.Stop() })
	k.RunUntil(time.Minute)

	var sawErr bool
	for _, d := range sched.Decisions() {
		if d.Reason == "host-failure" && d.Host == 1 && d.Err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Errorf("master-host loss produced no error decision: %+v", sched.Decisions())
	}
}
