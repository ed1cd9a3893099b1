package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A proc that takes its own next event without the queue (Proc.SleepUntil,
// Cond.WaitSlot and the blockOn fallbacks, DESIGN.md §7) must leave no
// trace of having done so. Each case runs twice. The forced run plants a
// canceled timer at the event's time t, so nothing may be taken in place
// and every step goes through the queue; the control run plants the same
// timer after t, so both runs draw the same seq and tie-break priority.
// Their step logs must be identical, without a tie-break seed (seed -1)
// and under seeds 0-7.

// takeAt is the time of the event the proc waits for in every case.
const takeAt = 10 * time.Millisecond

type takeCase struct {
	name string
	// sleep makes the proc sleep until takeAt; otherwise it waits on a
	// Cond for a callback it reserved at takeAt, as CPU.Compute does.
	sleep bool
	// deadline, when non-zero, ends the first run segment (RunUntil).
	deadline Time
	// start runs after the slot is reserved and before the proc waits (a
	// CPU's start-time run-queue watchers); complete runs in the callback
	// after it wakes the proc (its completion-time watchers).
	start, complete func(w *takeWorld)
	// residue: the first callback leaves the work unfinished and re-arms
	// itself 1 ns later, as a CPU completion with a float residue does.
	residue bool
	// panics: the callback panics instead of waking the proc.
	panics bool
	// other: the callback first wakes another proc, waiting on its own Cond.
	other bool
	// inPlace: the control run's proc takes its event in place (blockOn
	// runs the callback; a sleep takes no cancel cell).
	inPlace bool
}

type takeWorld struct {
	k   *Kernel
	p   *Proc
	log strings.Builder
}

func (w *takeWorld) logf(actor, format string, args ...any) {
	fmt.Fprintf(&w.log, "%d %s %s\n", w.k.Now(), actor, fmt.Sprintf(format, args...))
}

func (w *takeWorld) queueAtNow(actor string) {
	w.k.Schedule(0, func() { w.logf(actor, "fire") })
}

var takeCases = []takeCase{
	{name: "sleep", sleep: true, inPlace: true},
	{name: "sleep past the deadline", sleep: true, deadline: takeAt - time.Millisecond},
	{name: "sleep after stop", sleep: true, start: func(w *takeWorld) { w.k.Stop() }},
	{name: "sleep with a masked interrupt pending", sleep: true, inPlace: true,
		start: func(w *takeWorld) { w.p.MaskInterrupts(); w.p.Interrupt("masked") }},
	{name: "sleep with an interrupt pending", sleep: true,
		start: func(w *takeWorld) { w.p.Interrupt("pending") }},
	{name: "wait", inPlace: true},
	{name: "a start watcher queues at t",
		start: func(w *takeWorld) { w.k.ScheduleAt(takeAt, func() { w.logf("watcher", "fire") }) }},
	{name: "a completion watcher queues at t", inPlace: true,
		complete: func(w *takeWorld) { w.queueAtNow("watcher") }},
	{name: "a completion watcher stops the kernel", inPlace: true,
		complete: func(w *takeWorld) { w.k.Stop() }},
	{name: "the deadline is before t", deadline: takeAt - time.Millisecond},
	{name: "the deadline is t", deadline: takeAt, inPlace: true},
	{name: "a masked interrupt is pending", inPlace: true,
		start: func(w *takeWorld) { w.p.MaskInterrupts(); w.p.Interrupt("masked") }},
	{name: "an interrupt is pending",
		start: func(w *takeWorld) { w.p.Interrupt("pending") }},
	{name: "a masked interrupt is raised at completion", inPlace: true,
		start:    func(w *takeWorld) { w.p.MaskInterrupts() },
		complete: func(w *takeWorld) { w.p.Interrupt("masked") }},
	{name: "an interrupt is raised at completion", inPlace: true,
		complete: func(w *takeWorld) { w.p.Interrupt("raised") }},
	{name: "the completion leaves a residue", residue: true, inPlace: true},
	{name: "the completion panics", panics: true, inPlace: true},
	{name: "the completion wakes another proc first", other: true, inPlace: true},
	{name: "the completion wakes another proc and leaves a residue", other: true, residue: true, inPlace: true},
}

// runTakeCase runs one case and returns its step log and whether the proc
// took its event in place.
// A negative seed installs no tie-breaker.
func runTakeCase(c takeCase, plant Time, seed int) (string, bool) {
	w := &takeWorld{k: NewKernel()}
	k := w.k
	defer k.Close()
	if seed >= 0 {
		k.SetTieBreakSeed(uint64(seed))
	}
	inPlace := false
	// A callback after t that ties with the wake of the proc's first sleep
	// after its event.
	k.Schedule(takeAt+time.Millisecond, func() { w.logf("tick", "fire") })
	other := NewCond(k)
	if c.other {
		k.Spawn("q", func(q *Proc) { w.logf("q", "woke err %v", other.Wait(q)) })
	}
	w.p = k.SpawnAt(time.Microsecond, "p", func(p *Proc) {
		w.logf("p", "start")
		k.ScheduleAt(plant, func() { w.logf("planted", "fire") }).Cancel()
		var err error
		if c.sleep {
			if c.start != nil {
				c.start(w)
			}
			cells := len(k.cells)
			err = p.SleepUntil(takeAt)
			inPlace = len(k.cells) == cells
		} else {
			cond := NewCond(k)
			done, rearmed := false, false
			var complete func()
			complete = func() {
				w.logf("complete", "running %v blocked %v", k.Running() != nil, k.Blocked())
				if !rearmed {
					inPlace = k.reserving // blockOn is running this callback
				}
				if c.panics {
					panic("completion")
				}
				if c.other && !rearmed {
					other.Signal()
				}
				if c.residue && !rearmed {
					rearmed = true
					k.Schedule(1, complete)
					return
				}
				done = true
				cond.Broadcast()
				if c.complete != nil {
					c.complete(w)
				}
			}
			s := k.Reserve(takeAt)
			if c.start != nil {
				c.start(w)
			}
			var took bool
			if took, err = cond.WaitSlot(p, s, complete); !took {
				k.ScheduleSlot(s, complete)
			}
			for !done && err == nil {
				err = cond.Wait(p)
			}
		}
		w.logf("p", "woke err %v", err)
		p.UnmaskInterrupts()
		w.logf("p", "sleep err %v", p.Sleep(time.Millisecond))
		w.logf("p", "sleep err %v", p.Sleep(5*time.Millisecond))
	})
	run := func(deadline Time) (r any) {
		defer func() { r = recover() }()
		if deadline > 0 {
			w.logf("top", "run until %v -> %d", deadline, k.RunUntil(deadline))
		} else {
			w.logf("top", "run -> %d", k.Run())
		}
		return nil
	}
	for i, d := range []Time{c.deadline, 0, 0} {
		if i > 0 || d > 0 {
			if r := run(d); r != nil {
				w.logf("top", "panic %v", r)
			}
		}
	}
	w.logf("top", "end events %d switches %d blocked %v", k.EventsScheduled(), k.ProcSwitches(), k.Blocked())
	return w.log.String(), inPlace
}

func TestTakeInPlaceMatchesQueuePath(t *testing.T) {
	for _, c := range takeCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := -1; seed < 8; seed++ {
				forced, forcedIn := runTakeCase(c, takeAt, seed)
				control, controlIn := runTakeCase(c, takeAt+time.Second, seed)
				if forcedIn {
					t.Fatalf("seed %d: a canceled timer at t did not force the queue path", seed)
				}
				if controlIn != c.inPlace {
					t.Fatalf("seed %d: control run took its event in place: %v, want %v", seed, controlIn, c.inPlace)
				}
				if forced != control {
					t.Fatalf("seed %d: step logs differ\nqueue path:\n%s\nin place:\n%s", seed, forced, control)
				}
			}
		})
	}
}

// TestTakeInPlaceZeroAlloc: a warm sleep and a warm reserved wait taken in
// place allocate nothing.
func TestTakeInPlaceZeroAlloc(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	cond := NewCond(k)
	wake := func() { cond.Broadcast() }
	k.Spawn("p", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			if took, _ := cond.WaitSlot(p, k.Reserve(k.Now()+time.Microsecond), wake); !took {
				panic("reserved wait not taken in place")
			}
		}
	})
	k.RunUntil(time.Millisecond)
	start := k.EventsScheduled()
	allocs := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("in-place sleeps and waits allocate %v per millisecond, want 0", allocs)
	}
	if k.EventsScheduled() == start {
		t.Fatal("nothing ran inside the measured window")
	}
}
