package adm

import (
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Event is one asynchronous command from the global scheduler to an ADM
// application process.
type Event struct {
	// Kind is "withdraw" (vacate this process's host — the owner is back)
	// or "rebalance" (recompute the partition for current loads).
	Kind string
	// Reason is the scheduler's trigger.
	Reason core.MigrationReason
	// At is when the signal reached the process.
	At sim.Time
}

// EventQueue collects migration events delivered by signal. The paper's
// requirements are embodied here: events arrive at arbitrary times (the
// signal handler runs between application instructions), the application
// polls a cheap flag inside its inner loops for rapid response, and
// multiple simultaneous events queue rather than overwrite.
type EventQueue struct {
	events []Event
}

// Attach installs the queue's signal handler on a PVM task and returns the
// queue. Interrupts with an Event reason are enqueued and the computation
// continues; other interrupts surface normally.
func Attach(t *pvm.Task) *EventQueue {
	q := &EventQueue{}
	t.SetOnSignal(func(reason any) error {
		if ev, ok := reason.(Event); ok {
			ev.At = t.Proc().Now()
			q.events = append(q.events, ev)
			return nil
		}
		return &sim.Interrupted{Reason: reason}
	})
	return q
}

// Pending reports whether any event is queued — the inner-loop flag check.
func (q *EventQueue) Pending() bool { return len(q.events) > 0 }

// Take removes and returns the oldest event.
func (q *EventQueue) Take() (Event, bool) {
	if len(q.events) == 0 {
		return Event{}, false
	}
	ev := q.events[0]
	q.events = q.events[1:]
	return ev, true
}

// Signal delivers an event to a task as an asynchronous signal, the way the
// GS pokes ADM applications. Simultaneous signals must queue, not coalesce
// (the paper's third complication), so when an interrupt is already pending
// delivery retries a moment later instead of overwriting it.
func Signal(t *pvm.Task, ev Event) {
	p := t.Proc()
	if p.InterruptPending() {
		t.Machine().Kernel().Schedule(time.Millisecond, func() { Signal(t, ev) })
		return
	}
	p.Interrupt(ev)
}
