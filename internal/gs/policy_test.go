package gs

import (
	"errors"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
)

// errTarget counts calls and fails every action, to exercise error paths.
type errTarget struct {
	loads     map[int]int
	evacs     int
	moves     int
	lastMoved [2]int
}

func (e *errTarget) EvacuateHost(host int, _ core.MigrationReason) (int, error) {
	e.evacs++
	return 0, errors.New("target: evacuation refused")
}

func (e *errTarget) MoveOne(from, to int, _ core.MigrationReason) error {
	e.moves++
	e.lastMoved = [2]int{from, to}
	return errors.New("target: move refused")
}

func (e *errTarget) HostLoad(host int) int { return e.loads[host] }

// TestLoadThresholdAllHostsLoaded: when every host is above threshold there
// is no idle destination, so the policy must hold still rather than shuffle
// VPs between equally-overloaded hosts.
func TestLoadThresholdAllHostsLoaded(t *testing.T) {
	k, cl, sys := setup(t, 3)
	target := NewVPTarget(sys)
	var bgs []*cluster.BackgroundLoad
	for i := 0; i < 3; i++ {
		w := spawnWorker(t, sys, i, 120)
		target.Track(w.OrigTID())
		bg := cluster.NewBackgroundLoad(cl.Host(netsim.HostID(i)))
		bg.Set(4) // everyone far above threshold
		bgs = append(bgs, bg)
	}
	sched := NewFleet(cl, target, FleetPolicy{LoadThreshold: 2, PollInterval: 2 * time.Second})
	sched.Start()
	k.RunUntil(2 * time.Minute)
	if n := len(sys.Records()); n != 0 {
		t.Fatalf("rebalanced %d VPs with no idle host: %+v", n, sys.Records())
	}
	for _, d := range sched.Decisions() {
		if d.Reason == core.ReasonHighLoad {
			t.Fatalf("logged a high-load decision with no idle host: %+v", d)
		}
	}
	_ = bgs
}

// TestEvacuateHostErrorIsLogged: a target that refuses evacuation must leave
// an error decision (Moved 0) without crashing the scheduler loop.
func TestEvacuateHostErrorIsLogged(t *testing.T) {
	k, cl, _ := setup(t, 2)
	tgt := &errTarget{loads: map[int]int{0: 1}}
	sched := NewFleet(cl, tgt, DefaultFleetPolicy())
	sched.Start()
	k.Schedule(time.Second, func() { cl.Host(0).SetOwnerActive(true) })
	k.RunUntil(time.Minute)
	if tgt.evacs != 1 {
		t.Fatalf("evacuations = %d, want 1", tgt.evacs)
	}
	dec := sched.Decisions()
	if len(dec) != 1 || dec[0].Err == nil || dec[0].Moved != 0 ||
		dec[0].Reason != core.ReasonOwnerReclaim {
		t.Fatalf("decisions = %+v", dec)
	}
}

// TestMoveOneErrorIsLogged: a failed rebalance move is recorded with the
// error and Moved 0, and polling continues afterwards.
func TestMoveOneErrorIsLogged(t *testing.T) {
	k, cl, _ := setup(t, 2)
	tgt := &errTarget{loads: map[int]int{0: 2}}
	bg := cluster.NewBackgroundLoad(cl.Host(0))
	bg.Set(4)
	sched := NewFleet(cl, tgt, FleetPolicy{LoadThreshold: 2, PollInterval: 2 * time.Second})
	sched.Start()
	k.RunUntil(10 * time.Second)
	if tgt.moves < 2 {
		t.Fatalf("moves = %d; polling should continue after an error", tgt.moves)
	}
	if tgt.lastMoved != [2]int{0, 1} {
		t.Fatalf("moved %v, want [0 1]", tgt.lastMoved)
	}
	var errDecisions int
	for _, d := range sched.Decisions() {
		if d.Reason == core.ReasonHighLoad && d.Err != nil && d.Moved == 0 {
			errDecisions++
		}
	}
	if errDecisions != tgt.moves {
		t.Fatalf("error decisions = %d, want %d", errDecisions, tgt.moves)
	}
}

// TestZeroPollIntervalDefaults: a zero PollInterval must fall back to the
// 5 s default rather than scheduling a zero-delay poll storm.
func TestZeroPollIntervalDefaults(t *testing.T) {
	k, cl, _ := setup(t, 2)
	tgt := &errTarget{loads: map[int]int{0: 2}}
	bg := cluster.NewBackgroundLoad(cl.Host(0))
	bg.Set(4)
	sched := NewFleet(cl, tgt, FleetPolicy{LoadThreshold: 2}) // PollInterval deliberately zero
	sched.Start()
	k.RunUntil(12 * time.Second)
	// With the 5 s default exactly two polls fit in 12 s; a zero-delay loop
	// would spin forever and RunUntil would never return past t=0.
	if tgt.moves != 2 {
		t.Fatalf("moves = %d, want 2 (5s default poll)", tgt.moves)
	}
	_ = sched
}
