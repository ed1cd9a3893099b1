package plan

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

func testSystem(t *testing.T, nHosts int) (*sim.Kernel, *mpvm.System) {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, nHosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("host%d", i+1))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	m := pvm.NewMachine(cl, pvm.Config{})
	return k, mpvm.New(m, mpvm.Config{})
}

// spawnWorkers starts n long-running migratable tasks on host.
func spawnWorkers(t *testing.T, s *mpvm.System, host, n int, stateBytes int) []core.TID {
	t.Helper()
	ids := make([]core.TID, 0, n)
	for i := 0; i < n; i++ {
		mt, err := s.SpawnMigratable(host, fmt.Sprintf("w%d-%d", host, i), stateBytes, func(mt *mpvm.MTask) {
			mt.SetDirtyRate(64 << 10)
			mt.Compute(mt.Host().Spec().Speed * 300)
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, mt.OrigTID())
	}
	return ids
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"empty-name", Spec{Groups: []Group{{FromHost: 0, Dest: 1}}}, false},
		{"no-groups", Spec{Name: "p"}, false},
		{"bad-mode", Spec{Name: "p", Groups: []Group{{FromHost: 0, Dest: 1, Mode: "tepid"}}}, false},
		{"no-victims", Spec{Name: "p", Groups: []Group{{FromHost: -1, Dest: 1}}}, false},
		{"bad-placement", Spec{Name: "p", Groups: []Group{{FromHost: 0, Dest: UnplacedDest, Placement: "psychic"}}}, false},
		{"negative-concurrency", Spec{Name: "p", Groups: []Group{{FromHost: 0, Dest: 1, Concurrency: -1}}}, false},
		{"evac", Spec{Name: "p", Groups: []Group{{FromHost: 0, Dest: UnplacedDest, Mode: ModeWarm, Concurrency: 2}}}, true},
		{"explicit", Spec{Name: "p", Groups: []Group{{VPs: []core.TID{1}, FromHost: -1, Dest: 1}}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("validation passed, want error")
			}
		})
	}
}

// TestWarmEvacuationPlan is the headline flow: one plan empties a
// reclaimed host warm, two transfers in flight, destinations picked by
// the placement strategy.
func TestWarmEvacuationPlan(t *testing.T) {
	k, s := testSystem(t, 4)
	vps := spawnWorkers(t, s, 0, 4, 4<<20)
	spawnWorkers(t, s, 1, 1, 1<<20) // pre-load one receiver
	var res *Result
	ex := NewExecutor(s, 42)
	k.Schedule(2*time.Second, func() {
		err := ex.Start(Spec{Name: "evac-host0", Groups: []Group{{
			Name: "all", FromHost: 0, Mode: ModeWarm,
			Dest: UnplacedDest, Placement: "least-loaded", Concurrency: 2,
		}}}, func(r Result) { res = &r })
		if err != nil {
			t.Errorf("start: %v", err)
		}
	})
	k.Run()
	if res == nil {
		t.Fatal("plan never settled")
	}
	if res.Moved != 4 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, vp := range vps {
		mt := s.Task(vp)
		if got := int(mt.Host().ID()); got == 0 {
			t.Errorf("%v still on host 0", vp)
		}
	}
	recs := s.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	dests := map[int]int{}
	for _, r := range recs {
		if r.Mode != core.MigrationWarm {
			t.Errorf("record %v mode %q, want warm", r.VP, r.Mode)
		}
		dests[r.To]++
	}
	// Least-loaded over an optimistically updated index spreads the four
	// VPs instead of dogpiling one receiver.
	if len(dests) < 2 {
		t.Errorf("all VPs landed on one host: %v", dests)
	}
}

// TestGroupsRunInOrder pins the stage barrier: group 2 must not issue a
// migration until group 1 fully settled.
func TestGroupsRunInOrder(t *testing.T) {
	k, s := testSystem(t, 3)
	a := spawnWorkers(t, s, 0, 2, 2<<20)
	b := spawnWorkers(t, s, 1, 2, 2<<20)
	var res *Result
	ex := NewExecutor(s, 1)
	k.Schedule(time.Second, func() {
		err := ex.Start(Spec{Name: "staged", Groups: []Group{
			{Name: "first", VPs: a, Dest: 2},
			{Name: "second", VPs: b, Dest: 2, Mode: ModeWarm},
		}}, func(r Result) { res = &r })
		if err != nil {
			t.Errorf("start: %v", err)
		}
	})
	k.Run()
	if res == nil || res.Moved != 4 {
		t.Fatalf("result = %+v", res)
	}
	recs := s.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	// Completion order respects the barrier: both group-1 records precede
	// both group-2 records.
	firstDone := map[core.TID]bool{a[0]: true, a[1]: true}
	for _, r := range recs[:2] {
		if !firstDone[r.VP] {
			t.Fatalf("group-2 VP %v completed before group 1 settled: %v", r.VP, recs)
		}
	}
	for _, r := range recs[2:] {
		if r.Mode != core.MigrationWarm {
			t.Errorf("group-2 record %v mode %q, want warm", r.VP, r.Mode)
		}
	}
}

// traceEvent is one captured protocol trace line.
type traceEvent struct{ actor, stage, detail string }

// TestColdPlanMatchesSequentialMigrate pins the acceptance criterion: a
// cold-mode plan with concurrency 1 and explicit destinations reproduces
// the manual sequential Migrate loop's decisions, records, and protocol
// trace bit-for-bit.
func TestColdPlanMatchesSequentialMigrate(t *testing.T) {
	run := func(usePlan bool) ([]traceEvent, []core.MigrationRecord) {
		k, s := testSystem(t, 3)
		var events []traceEvent
		vps := spawnWorkers(t, s, 0, 3, 2<<20)
		s.SetTracer(func(actor, stage, detail string) {
			events = append(events, traceEvent{actor, stage, detail})
		})
		if usePlan {
			ex := NewExecutor(s, 7)
			k.Schedule(2*time.Second, func() {
				if err := ex.Start(Spec{Name: "seq", Groups: []Group{{
					Name: "move", VPs: vps, Dest: 1, Mode: ModeCold, Concurrency: 1,
				}}}, nil); err != nil {
					t.Errorf("start: %v", err)
				}
			})
		} else {
			// Manual baseline: issue each migration as the previous record
			// lands — the loop evacuation code has always hand-rolled.
			next := 0
			issue := func() {
				if next < len(vps) {
					vp := vps[next]
					next++
					if err := s.Migrate(vp, 1, core.ReasonOwnerReclaim); err != nil {
						t.Errorf("migrate: %v", err)
					}
				}
			}
			s.OnRecord(func(core.MigrationRecord) { k.Schedule(0, issue) })
			k.Schedule(2*time.Second, issue)
		}
		k.Run()
		return events, s.Records()
	}
	planEvents, planRecs := run(true)
	manEvents, manRecs := run(false)
	if !reflect.DeepEqual(planRecs, manRecs) {
		t.Fatalf("records diverge:\nplan   %+v\nmanual %+v", planRecs, manRecs)
	}
	if !reflect.DeepEqual(planEvents, manEvents) {
		max := len(planEvents)
		if len(manEvents) > max {
			max = len(manEvents)
		}
		for i := 0; i < max; i++ {
			var a, b traceEvent
			if i < len(planEvents) {
				a = planEvents[i]
			}
			if i < len(manEvents) {
				b = manEvents[i]
			}
			if a != b {
				t.Fatalf("trace diverges at %d:\nplan   %+v\nmanual %+v", i, a, b)
			}
		}
		t.Fatalf("trace lengths diverge: plan %d manual %d", len(planEvents), len(manEvents))
	}
}

// planTarget is a gs.Target whose whole-host evacuation is a warm,
// two-at-a-time plan instead of gs.VPTarget's inline cold loop. The count
// it returns is the moves commanded; the plan settles asynchronously.
type planTarget struct {
	*gs.VPTarget[core.TID]
	ex *Executor
}

func (pt planTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	vps := pt.ex.sys.VPsOnHost(host)
	err := pt.ex.Start(Spec{Name: "evac", Groups: []Group{{
		VPs: vps, FromHost: host, Mode: ModeWarm, Dest: UnplacedDest,
		Placement: "least-loaded", Concurrency: 2, Reason: reason,
	}}}, nil)
	return len(vps), err
}

// TestSchedulerEvacuatesThroughPlan wires the executor into the global
// scheduler through the gs.Target seam: an owner reclaiming their
// workstation triggers a warm, staged evacuation plan.
func TestSchedulerEvacuatesThroughPlan(t *testing.T) {
	k, s := testSystem(t, 3)
	vps := spawnWorkers(t, s, 0, 3, 2<<20)
	target := planTarget{gs.NewVPTarget(s), NewExecutor(s, 9)}
	sched := gs.NewFleet(s.Machine().Cluster(), target, gs.DefaultFleetPolicy())
	sched.Start()
	k.Schedule(3*time.Second, func() {
		s.Machine().Cluster().Host(0).SetOwnerActive(true)
	})
	k.Run()
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	for _, r := range recs {
		if r.Mode != core.MigrationWarm || r.Reason != core.ReasonOwnerReclaim {
			t.Fatalf("record = %+v, want warm owner-reclaim", r)
		}
	}
	for _, vp := range vps {
		if int(s.Task(vp).Host().ID()) == 0 {
			t.Errorf("%v still on the reclaimed host", vp)
		}
	}
	dec := sched.Decisions()
	if len(dec) != 1 || dec[0].Moved != 3 || dec[0].Err != nil {
		t.Fatalf("decisions = %+v", dec)
	}
}

// TestPlanReportsFailures: a VP that cannot be validated fails its
// outcome without sinking the rest of the group.
func TestPlanReportsFailures(t *testing.T) {
	k, s := testSystem(t, 2)
	vps := spawnWorkers(t, s, 0, 2, 1<<20)
	var res *Result
	ex := NewExecutor(s, 3)
	k.Schedule(time.Second, func() {
		err := ex.Start(Spec{Name: "mixed", Groups: []Group{{
			VPs:  []core.TID{vps[0], core.MakeTID(0, 999), vps[1]},
			Dest: 1,
		}}}, func(r Result) { res = &r })
		if err != nil {
			t.Errorf("start: %v", err)
		}
	})
	k.Run()
	if res == nil {
		t.Fatal("plan never settled")
	}
	if res.Moved != 2 || res.Failed != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Groups[0].Outcomes[1].Err == "" {
		t.Fatalf("bogus VP outcome = %+v", res.Groups[0].Outcomes[1])
	}
}

// TestPlanPlacementSkipsOwnedHost: a least-loaded evacuation plan never
// places a VP on a host whose owner is active, however idle it looks. Host 1
// runs nothing but has its owner back; hosts 2 and 3 run one VP each, so the
// three VPs leaving host 0 must all go there.
func TestPlanPlacementSkipsOwnedHost(t *testing.T) {
	const owned = 1
	k, s := testSystem(t, 4)
	defer k.Close()
	spawnWorkers(t, s, 0, 3, 1<<20)
	spawnWorkers(t, s, 2, 1, 1<<20)
	spawnWorkers(t, s, 3, 1, 1<<20)
	s.Machine().Cluster().Host(owned).SetOwnerActive(true)
	var res *Result
	ex := NewExecutor(s, 11)
	k.Schedule(time.Second, func() {
		err := ex.Start(Spec{Name: "evac-host0", Groups: []Group{{
			FromHost: 0, Mode: ModeWarm, Dest: UnplacedDest,
			Placement: "least-loaded", Concurrency: 2,
		}}}, func(r Result) { res = &r })
		if err != nil {
			t.Errorf("start: %v", err)
		}
	})
	k.RunUntil(10 * time.Minute)
	if res == nil || res.Moved != 3 || res.Failed != 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, o := range res.Groups[0].Outcomes {
		if o.Dest == owned {
			t.Errorf("%v placed on owner-active host %d: %+v", o.VP, owned, res.Groups[0].Outcomes)
		}
	}
}

// TestPlanSettlesWhenVPGoesBeforeCommand: a VP whose task exits, or whose
// source host fails, while its stage-1 command is still on the wire settles
// as failed instead of wedging the executor, and a plan queued behind it
// still runs. The command is sent at 1 s; it takes longer than 100 µs to
// reach the source mpvmd.
func TestPlanSettlesWhenVPGoesBeforeCommand(t *testing.T) {
	for _, c := range []struct {
		name  string
		crash bool
		after sim.Time
	}{
		{"exit+1us", false, time.Microsecond},
		{"exit+10us", false, 10 * time.Microsecond},
		{"exit+100us", false, 100 * time.Microsecond},
		{"crash+1us", true, time.Microsecond},
		{"crash+10us", true, 10 * time.Microsecond},
		{"crash+100us", true, 100 * time.Microsecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, s := testSystem(t, 3)
			defer k.Close()
			goneAt := time.Second + c.after
			victim, err := s.SpawnMigratable(0, "victim", 1<<20, func(mt *mpvm.MTask) {
				if c.crash {
					mt.Compute(mt.Host().Spec().Speed * 300)
					return
				}
				_ = mt.Proc().SleepUntil(goneAt)
			})
			if err != nil {
				t.Fatal(err)
			}
			other := spawnWorkers(t, s, 1, 1, 1<<20)
			if c.crash {
				k.Schedule(goneAt, func() { s.Machine().Cluster().Host(0).Fail() })
			}
			var first, second *Result
			ex := NewExecutor(s, 5)
			k.Schedule(time.Second, func() {
				if err := ex.Start(Spec{Name: "doomed", Groups: []Group{{
					VPs: []core.TID{victim.OrigTID()}, Dest: 2,
				}}}, func(r Result) { first = &r }); err != nil {
					t.Errorf("start: %v", err)
				}
				if err := ex.Start(Spec{Name: "behind", Groups: []Group{{
					VPs: other, Dest: 2,
				}}}, func(r Result) { second = &r }); err != nil {
					t.Errorf("start: %v", err)
				}
			})
			k.RunUntil(time.Minute)
			if first == nil || first.Failed != 1 || first.Groups[0].Outcomes[0].Err == "" {
				t.Fatalf("doomed plan = %+v, want one failed outcome", first)
			}
			if second == nil || second.Moved != 1 {
				t.Fatalf("plan queued behind = %+v, want one VP moved", second)
			}
		})
	}
}
