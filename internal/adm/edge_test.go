package adm

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

func TestPlanMovesNoOpWhenBalanced(t *testing.T) {
	moves, err := PlanMoves([]int{10, 10, 10}, []int{10, 10, 10})
	if err != nil || len(moves) != 0 {
		t.Fatalf("moves = %v, %v", moves, err)
	}
}

func TestPlanMovesTotalMismatch(t *testing.T) {
	if _, err := PlanMoves([]int{10}, []int{11}); !errs.Is(err, CodeBadPlan) {
		t.Fatal("total mismatch accepted")
	}
	if _, err := PlanMoves([]int{10}, []int{5, 5}); !errs.Is(err, CodeBadPlan) {
		t.Fatal("length mismatch accepted")
	}
}

func TestSignalsCoalesceSafely(t *testing.T) {
	// Two signals delivered at the same instant must both be queued: the
	// retry logic prevents Unix-style coalescing from losing one.
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{}, cluster.DefaultHostSpec("h"))
	m := pvm.NewMachine(cl, pvm.Config{})
	var events []Event
	task, _ := m.Spawn(0, "w", func(tk *pvm.Task) {
		q := Attach(tk)
		for len(events) < 2 {
			tk.Compute(tk.Host().Spec().Speed / 10)
			for {
				ev, ok := q.Take()
				if !ok {
					break
				}
				events = append(events, ev)
			}
		}
	})
	k.Schedule(time.Second, func() {
		// Same kernel instant: the second Interrupt would overwrite the
		// first without the pending-retry in Signal.
		Signal(task, Event{Kind: "withdraw", Reason: core.ReasonOwnerReclaim})
		Signal(task, Event{Kind: "rebalance", Reason: core.ReasonHighLoad})
	})
	k.RunUntil(time.Minute)
	if len(events) != 2 {
		t.Fatalf("events = %+v (one signal was lost)", events)
	}
	kinds := events[0].Kind + "," + events[1].Kind
	if kinds != "withdraw,rebalance" {
		t.Fatalf("kinds = %s", kinds)
	}
}
