package sim

import (
	"fmt"
	"testing"
	"time"
)

// refQueue is the reference the kernel's event queue is held to: the live
// events as a plain list, the next one found by a scan under (at, prio,
// seq). It draws tie-break priorities from its own RNG, seeded as the
// kernel's, so it knows each event's priority without reading the kernel.
type refQueue struct {
	live []refEvent
	seq  uint64
	rng  *RNG // nil without a tie-breaker
}

type refEvent struct {
	at        Time
	prio, seq uint64
	timer     Timer // zero for a proc wake, which the test never cancels
}

// add records the event the kernel is about to schedule and returns its seq.
func (q *refQueue) add(at Time) uint64 {
	q.seq++
	e := refEvent{at: at, seq: q.seq}
	if q.rng != nil {
		e.prio = q.rng.Uint64()
	}
	q.live = append(q.live, e)
	return q.seq
}

// first returns the index of the least live event, -1 when none is left.
func (q *refQueue) first() int {
	min := -1
	for i := range q.live {
		a := &q.live[i]
		if min < 0 {
			min = i
			continue
		}
		b := &q.live[min]
		if a.at < b.at || a.at == b.at && (a.prio < b.prio || a.prio == b.prio && a.seq < b.seq) {
			min = i
		}
	}
	return min
}

func (q *refQueue) remove(i int) {
	q.live[i] = q.live[len(q.live)-1]
	q.live = q.live[:len(q.live)-1]
}

// queueTransitions counts how often a run passed through the head slot's
// edge cases.
type queueTransitions struct {
	displaced      int // a push took the head slot from an event already in it
	headOnly       int // a push met a queue whose only event was the head
	deadlineAtHead int // RunUntil stopped with the head queued past its deadline
}

// TestEventQueueMatchesSortedReference drives the kernel's queue through
// random interleavings of pushes (from callbacks, from a sleeping proc and
// from outside Run), pops, cancels and RunUntil deadlines, at one instant
// and across instants, with and without a tie-breaker. Every event that
// runs must be the least live one by (at, prio, seq) at the time it runs,
// the clock must read its time, every event at or before a deadline must
// have run when RunUntil returns and none after it, and every event must
// run in the end. The runs must pass through each of the head slot's edge
// cases: the head displaced, the head alone with an empty heap, and a
// deadline that stops at the head.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	for _, tieBreak := range []bool{false, true} {
		var tr queueTransitions
		for seed := uint64(0); seed < 40; seed++ {
			eventQueueRun(t, seed, tieBreak, &tr)
		}
		t.Logf("tie-break %v: %+v", tieBreak, tr)
		if tr.displaced == 0 || tr.headOnly == 0 || tr.deadlineAtHead == 0 {
			t.Errorf("tie-break %v: transitions not all reached: %+v", tieBreak, tr)
		}
	}
}

func eventQueueRun(t *testing.T, seed uint64, tieBreak bool, tr *queueTransitions) {
	t.Helper()
	k := NewKernel()
	defer k.Close()
	ref := &refQueue{}
	if tieBreak {
		k.SetTieBreakSeed(seed)
		ref.rng = NewRNG(seed)
	}
	r := NewRNG(seed + 1)
	delay := func() Time {
		return []Time{0, 0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}[r.Intn(5)]
	}
	// A mismatch is kept and stops the run: ran may be called on a proc's
	// stack (a callback run in place), where the test cannot fail.
	var bad string
	fail := func(format string, args ...any) {
		if bad == "" {
			bad = fmt.Sprintf("seed %d tie-break %v: ", seed, tieBreak) + fmt.Sprintf(format, args...)
		}
		k.Stop()
	}
	// watch runs a push and counts the head slot's transitions it made.
	watch := func(push func()) {
		hadHead, holder, heap := k.hasHead, k.head.seq, len(k.events)
		push()
		if hadHead && k.head.seq != holder {
			tr.displaced++
		}
		if hadHead && heap == 0 {
			tr.headOnly++
		}
		if k.EventsScheduled() != ref.seq {
			fail("kernel scheduled %d events, reference %d", k.EventsScheduled(), ref.seq)
		}
	}
	// ran checks that the event seq is the one the kernel must run now.
	ran := func(seq uint64) {
		i := ref.first()
		switch {
		case i < 0:
			fail("ran event %d, reference holds none", seq)
		case ref.live[i].seq != seq:
			fail("ran event %d, reference says %+v", seq, ref.live[i])
		case k.Now() != ref.live[i].at:
			fail("event %d ran at %v, scheduled for %v", seq, k.Now(), ref.live[i].at)
		default:
			ref.remove(i)
		}
	}
	var schedule func(at Time)
	callback := func(seq uint64) func() {
		return func() {
			ran(seq)
			for n := r.Intn(3); n > 0; n-- {
				schedule(k.Now() + delay())
			}
			if r.Intn(4) == 0 && len(ref.live) > 0 {
				if i := r.Intn(len(ref.live)); ref.live[i].timer != (Timer{}) {
					ref.live[i].timer.Cancel()
					ref.remove(i)
				}
			}
		}
	}
	schedule = func(at Time) {
		watch(func() {
			seq := ref.add(at)
			tm := k.ScheduleAt(at, callback(seq))
			ref.live[len(ref.live)-1].timer = tm
		})
	}

	var start uint64
	watch(func() {
		start = ref.add(0)
		k.Spawn("sleeper", func(p *Proc) {
			ran(start)
			for i := 0; i < 30; i++ {
				d := delay()
				wake := ref.add(p.Now() + d)
				if err := p.Sleep(d); err != nil {
					fail("sleeper woke with %v", err)
					return
				}
				ran(wake)
			}
		})
	})
	for round := 0; round < 40; round++ {
		for n := r.Intn(3); n > 0; n-- {
			schedule(k.Now() + delay())
		}
		deadline := k.Now() + Time(r.Intn(4))*time.Millisecond
		k.RunUntil(deadline)
		if bad != "" {
			t.Fatal(bad)
		}
		if k.Now() != deadline {
			t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, deadline, k.Now())
		}
		if i := ref.first(); i >= 0 && ref.live[i].at <= deadline {
			t.Fatalf("seed %d: RunUntil(%v) returned with event %+v due", seed, deadline, ref.live[i])
		}
		if k.hasHead && k.head.at > deadline {
			tr.deadlineAtHead++
		}
	}
	k.Run()
	if bad != "" {
		t.Fatal(bad)
	}
	if len(ref.live) != 0 {
		t.Fatalf("seed %d: %d live events never ran: %+v", seed, len(ref.live), ref.live)
	}
}
