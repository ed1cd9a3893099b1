package serve

import (
	"testing"
	"time"
)

// goldenSessionFingerprint pins the value of Core.Fingerprint() for the
// scripted session below — the journal tests only prove live == replay,
// which a change that moves both sides the same way would pass. It covers
// every GS path serve builds: owner-reclaim evacuation, the load-threshold
// poll tick, heartbeat failure detection and rejoin, plus a commanded
// migration and a warm plan racing them. Regenerate (and say why in the PR)
// only when the schedule is meant to move. goldenSessionEvents is the kernel's
// scheduled-event count: the fingerprint cannot see an extra no-op event,
// but every tie-break draw after it would shift under a seeded config.
const (
	goldenSessionFingerprint = 0x1cec29addfffd58d
	goldenSessionEvents      = 41819
)

func goldenSession(t testing.TB) *Core {
	t.Helper()
	c := NewCore(Config{Hosts: 4, LoadThreshold: 2}, nil)
	must := func(kind CommandKind, fill func(*Command)) {
		t.Helper()
		if err := apply(t, c, kind, fill); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	must(CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt, Iterations: 60}
	})
	// The load workers sit on host 2 and the crash hits host 3, as in
	// bench/serve.go: a crash under a load worker is not the subject here.
	must(CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobLoad, Workers: 2, WorkerHosts: []int{2},
			RatePerSec: 10, Requests: 300, Seed: 1994, ReqFlops: 300_000}
	})
	advance(t, c, 3*time.Second)
	must(CmdOwner, func(cmd *Command) { cmd.Owner = &OwnerArgs{Host: 1, Active: true} })
	advance(t, c, 2*time.Second)
	must(CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "host-crash", Host: 3, OutageMs: 2000}
	})
	advance(t, c, 3*time.Second)
	must(CmdOwner, func(cmd *Command) { cmd.Owner = &OwnerArgs{Host: 1, Active: false} })
	advance(t, c, 2*time.Second)
	must(CmdMigrate, func(cmd *Command) {
		cmd.Migrate = &MigrateArgs{Orig: c.jobs[1].Load.WorkerOrigs()[0], To: 1}
	})
	advance(t, c, 5*time.Second)
	from := 2
	must(CmdPlan, func(cmd *Command) {
		cmd.Plan = &PlanArgs{Name: "evac-h2", Groups: []PlanGroup{{
			Name: "all", FromHost: &from, Mode: "warm",
			Placement: "least-loaded", Concurrency: 2,
		}}}
	})
	advance(t, c, 10*time.Minute) // drain
	return c
}

func TestGoldenSessionFingerprint(t *testing.T) {
	c := goldenSession(t)
	if !c.jobs[0].Opt.Out().Done || !c.jobs[1].Load.Done {
		t.Fatalf("session did not drain: opt done=%v load done=%v",
			c.jobs[0].Opt.Out().Done, c.jobs[1].Load.Done)
	}
	if len(c.mgr.Records()) == 0 {
		t.Fatal("the crash produced no recovery: the session no longer exercises failure detection")
	}
	if p := c.plans[0]; !p.Done || p.Result.Failed != 0 {
		t.Fatalf("warm plan did not settle cleanly: %+v", p)
	}
	if got := c.Fingerprint(); got != goldenSessionFingerprint {
		t.Fatalf("session fingerprint %#016x, want %#016x", got, uint64(goldenSessionFingerprint))
	}
	if got := c.k.EventsScheduled(); got != goldenSessionEvents {
		t.Fatalf("kernel events scheduled = %d, want %d", got, goldenSessionEvents)
	}
}
