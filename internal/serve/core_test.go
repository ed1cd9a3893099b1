package serve

import (
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/sim"
)

// apply builds and applies a command stamped at the core's current instant,
// the way the Server's write path does.
func apply(t testing.TB, c *Core, kind CommandKind, fill func(*Command)) error {
	t.Helper()
	cmd := Command{Seq: c.applied + 1, At: c.Now(), Kind: kind}
	if fill != nil {
		fill(&cmd)
	}
	return c.Apply(cmd)
}

func advance(t testing.TB, c *Core, d sim.Time) {
	t.Helper()
	if err := apply(t, c, CmdAdvance, func(cmd *Command) { cmd.Advance = d }); err != nil {
		t.Fatalf("advance %v: %v", d, err)
	}
}

func TestCoreOptJobRunsToCompletion(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt}
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	advance(t, c, 10*time.Minute)
	jobs := c.JobViews()
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jobs))
	}
	if !jobs[0].Done || jobs[0].Err != "" {
		t.Fatalf("opt job not done cleanly: %+v", jobs[0])
	}
	if jobs[0].Iterations == 0 {
		t.Fatal("opt job reports zero iterations")
	}
}

func TestCoreOptConflictAndResubmit(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt}
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt}
	})
	if !errs.Is(err, CodeConflict) {
		t.Fatalf("second submit err = %v, want %s", err, CodeConflict)
	}
	advance(t, c, 10*time.Minute)
	// The first job finished; the manager slot frees on resubmission.
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt}
	}); err != nil {
		t.Fatalf("resubmit after completion: %v", err)
	}
	if c.failed != 1 {
		t.Fatalf("failed counter = %d, want 1 (the conflict is journal-visible)", c.failed)
	}
}

func TestCoreLoadJobServesSchedule(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobLoad, RatePerSec: 40, Requests: 50, Seed: 3}
	}); err != nil {
		t.Fatalf("submit load: %v", err)
	}
	advance(t, c, 10*time.Minute)
	v := c.JobViews()[0]
	if !v.Done || v.Err != "" {
		t.Fatalf("load job not done cleanly: %+v", v)
	}
	if v.Completed != v.Requests || v.Completed != 50 {
		t.Fatalf("completed %d of %d, want 50", v.Completed, v.Requests)
	}
	if v.Latency == nil || v.Latency.N != 50 {
		t.Fatalf("latency summary missing or short: %+v", v.Latency)
	}
}

func TestCoreManualMigration(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt, Iterations: 30}
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	advance(t, c, 2*time.Second)
	orig := c.jobs[0].Opt.SlaveOrigs()[0] // spawned on host 1
	if err := apply(t, c, CmdMigrate, func(cmd *Command) {
		cmd.Migrate = &MigrateArgs{Orig: orig, To: 2}
	}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	advance(t, c, 10*time.Minute)
	found := false
	for _, r := range c.w.MPVM.Records() {
		if r.VP == orig && r.From == 1 && r.To == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no manual migration record for vp %d in %d records",
			orig, len(c.w.MPVM.Records()))
	}
	if !c.jobs[0].Opt.Out().Done {
		t.Fatal("opt job did not survive the manual migration")
	}
}

func TestCoreCrashRecovery(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt, Iterations: 30}
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	advance(t, c, 5*time.Second)
	if err := apply(t, c, CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "host-crash", Host: 1, OutageMs: 8000}
	}); err != nil {
		t.Fatalf("fault: %v", err)
	}
	advance(t, c, 4*time.Second)
	m := c.Metrics()
	if m.HostsAlive != 2 {
		t.Fatalf("hosts alive = %d mid-outage, want 2", m.HostsAlive)
	}
	advance(t, c, 10*time.Minute)
	m = c.Metrics()
	if m.HostsAlive != 3 {
		t.Fatalf("hosts alive = %d after revive, want 3", m.HostsAlive)
	}
	if m.Recoveries == 0 {
		t.Fatal("crash produced no recovery record")
	}
	if !c.jobs[0].Opt.Out().Done {
		t.Fatal("opt job did not finish after recovery")
	}
}

func TestCoreRollbackRequiresJobAndCheckpoint(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	err := apply(t, c, CmdRollback, nil)
	if !errs.Is(err, ft.CodeNoJob) {
		t.Fatalf("rollback with no job: err = %v, want %s", err, ft.CodeNoJob)
	}
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt, Iterations: 30}
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	advance(t, c, 20*time.Second)
	if c.w.Mgr.CommittedIteration() < 0 {
		t.Skip("no checkpoint committed yet at 20s; scenario timing drifted")
	}
	if err := apply(t, c, CmdRollback, nil); err != nil {
		t.Fatalf("rollback with committed checkpoint: %v", err)
	}
	advance(t, c, 10*time.Minute)
	if !c.jobs[0].Opt.Out().Done {
		t.Fatal("opt job did not finish after forced rollback")
	}
}

func TestCoreValidation(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: "batch"}
	}); !errs.Is(err, CodeBadRequest) {
		t.Fatalf("unknown kind: err = %v, want %s", err, CodeBadRequest)
	}
	if err := apply(t, c, CmdMigrate, func(cmd *Command) {
		cmd.Migrate = &MigrateArgs{Orig: 9999, To: 1}
	}); !errs.Is(err, CodeNotFound) {
		t.Fatalf("missing task: err = %v, want %s", err, CodeNotFound)
	}
	if err := apply(t, c, CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "host-crash", Host: 7}
	}); !errs.Is(err, CodeNotFound) {
		t.Fatalf("out-of-range host: err = %v, want %s", err, CodeNotFound)
	}
	if err := apply(t, c, CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "meteor"}
	}); !errs.Is(err, CodeBadRequest) {
		t.Fatalf("unknown fault kind: err = %v, want %s", err, CodeBadRequest)
	}
	// Clock-mismatch commands must refuse to execute.
	err := c.Apply(Command{Seq: c.applied + 1, At: c.Now() + time.Second, Kind: CmdAdvance, Advance: time.Second})
	if !errs.Is(err, CodeReplay) {
		t.Fatalf("clock mismatch: err = %v, want %s", err, CodeReplay)
	}
}

func TestCoreOwnerReclaimEvacuates(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobLoad, RatePerSec: 40, Requests: 200, Seed: 5}
	}); err != nil {
		t.Fatalf("submit load: %v", err)
	}
	advance(t, c, time.Second)
	if err := apply(t, c, CmdOwner, func(cmd *Command) {
		cmd.Owner = &OwnerArgs{Host: 1, Active: true}
	}); err != nil {
		t.Fatalf("owner: %v", err)
	}
	advance(t, c, 10*time.Minute)
	evacuated := false
	for _, r := range c.w.MPVM.Records() {
		if r.From == 1 {
			evacuated = true
		}
	}
	if !evacuated {
		t.Fatalf("owner reclaim moved nothing off host 1 (%d records)", len(c.w.MPVM.Records()))
	}
	if !c.jobs[0].Load.Done {
		t.Fatal("load job did not finish after reclaim")
	}
}
