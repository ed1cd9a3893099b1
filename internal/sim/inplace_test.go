package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A blocked proc whose own wake is the next event runs the callbacks ahead
// of it on its own stack and continues without a coroutine switch
// (Kernel.resumeInPlace, DESIGN.md §7). These tests hold that walk to the
// contract of the switched path.

// sleeper spawns a proc that sleeps n frames of d each and records how many
// it finished.
func sleeper(k *Kernel, n int, d Time, frames *int) *Proc {
	return k.Spawn("x", func(p *Proc) {
		for i := 0; i < n; i++ {
			if p.Sleep(d) != nil {
				return
			}
			*frames++
		}
	})
}

func TestSleepResumesInPlace(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	frames, fired := 0, 0
	sleeper(k, 100, time.Second, &frames)
	for i := 0; i < 100; i++ {
		k.Schedule(time.Duration(i)*time.Second+time.Second/2, func() {
			if k.Running() != nil {
				t.Errorf("callback ran with proc %q marked running", k.Running().Name())
			}
			fired++
		})
	}
	k.Run()
	if frames != 100 || fired != 100 {
		t.Fatalf("frames %d, callbacks %d, want 100 and 100", frames, fired)
	}
	if got := k.ProcSwitches(); got != 1 {
		t.Errorf("ProcSwitches = %d, want 1 (the first dispatch)", got)
	}
}

func TestAlternatingProcsSwitch(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	left := 100
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(p *Proc) {
			for left > 0 {
				left--
				p.Yield()
			}
		})
	}
	k.Run()
	// Each yield hands over to the other proc: 100 switches, plus the
	// final resume of the proc that did not make the last yield.
	if got := k.ProcSwitches(); got != 102 {
		t.Errorf("ProcSwitches = %d, want 102", got)
	}
}

func TestInPlaceCallbackPanicKeepsItsValue(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	frames := 0
	p := sleeper(k, 2, time.Second, &frames)
	k.Schedule(time.Second/2, func() { panic("boom") })
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want the callback's own value \"boom\"", got)
	}
	if p.Done() || frames != 0 || k.Now() != time.Second/2 {
		t.Fatalf("after the panic: done %v, frames %d, now %v; want a parked proc at 500ms", p.Done(), frames, k.Now())
	}
	if b := k.Blocked(); len(b) != 1 || b[0] != "x" {
		t.Fatalf("Blocked = %v, want [x]", b)
	}
	// The proc's wake is still queued: a further Run finishes it.
	k.Run()
	if !p.Done() || frames != 2 || k.Now() != 2*time.Second {
		t.Fatalf("after a second Run: done %v, frames %d, now %v", p.Done(), frames, k.Now())
	}
}

func TestStopFromInPlaceCallback(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	frames, after := 0, false
	sleeper(k, 3, time.Second, &frames)
	k.Schedule(1500*time.Millisecond, k.Stop)
	k.Schedule(1500*time.Millisecond, func() { after = true })
	if blocked := k.Run(); blocked != 1 {
		t.Fatalf("Run = %d blocked, want 1", blocked)
	}
	if k.Now() != 1500*time.Millisecond || frames != 1 || after {
		t.Fatalf("Run returned at %v after %d frames (next callback ran: %v); want 1.5s, 1, false", k.Now(), frames, after)
	}
	k.Run()
	if frames != 3 || !after || k.ProcSwitches() != 2 {
		t.Fatalf("resumed run: frames %d, next callback %v, switches %d; want 3, true, 2", frames, after, k.ProcSwitches())
	}
}

func TestRunUntilDeadlineBetweenFrames(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	frames := 0
	sleeper(k, 3, time.Second, &frames)
	if blocked := k.RunUntil(1500 * time.Millisecond); blocked != 1 {
		t.Fatalf("RunUntil = %d blocked, want 1", blocked)
	}
	if frames != 1 || k.Now() != 1500*time.Millisecond {
		t.Fatalf("RunUntil(1.5s): %d frames at %v, want 1 at 1.5s", frames, k.Now())
	}
	k.Run()
	if frames != 3 || k.Now() != 3*time.Second {
		t.Fatalf("Run: %d frames at %v, want 3 at 3s", frames, k.Now())
	}
}

func TestInterruptFromInPlaceCallback(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var err error
	var at Time
	p := k.Spawn("x", func(p *Proc) {
		err = p.Sleep(10 * time.Second)
		at = p.Now()
	})
	k.Schedule(time.Second, func() { p.Interrupt("sig") })
	k.Run()
	if ie, ok := IsInterrupted(err); !ok || ie.Reason != "sig" || at != time.Second {
		t.Fatalf("Sleep returned %v at %v, want *Interrupted{sig} at 1s", err, at)
	}
	if k.Now() != time.Second || k.ProcSwitches() != 1 {
		t.Fatalf("run ended at %v after %d switches, want 1s and 1 (canceled timer skipped)", k.Now(), k.ProcSwitches())
	}
}

func TestCloseFromInPlaceCallbackPanics(t *testing.T) {
	k := NewKernel()
	frames := 0
	p := sleeper(k, 2, time.Second, &frames)
	k.Schedule(time.Second/2, k.Close)
	got := func() (r any) {
		defer func() { r = recover() }()
		k.Run()
		return nil
	}()
	if msg := fmt.Sprint(got); !strings.Contains(msg, `Close called from a callback proc "x" is running in place`) {
		t.Fatalf("Run panicked with %q, want the in-place Close message", msg)
	}
	// Closed from outside, the kernel unwinds the parked proc as usual.
	k.Close()
	if !p.Done() || frames != 0 {
		t.Fatalf("after Close: done %v, frames %d", p.Done(), frames)
	}
}

// TestQueuePingPongZeroAlloc: a warm one-slot handoff — the producer waits
// on a notFull Cond while the queue holds an item, the consumer on the
// queue's own — waits on two conds every round, and neither Wait nor
// Signal allocates. It reads the malloc counter directly:
// testing.AllocsPerRun divides by the run count and would round a
// fractional rate down to zero.
func TestQueuePingPongZeroAlloc(t *testing.T) {
	const rounds = 10000
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	notFull := NewCond(k)
	k.Spawn("prod", func(p *Proc) {
		for i := 0; ; i++ {
			for q.Len() >= 1 {
				if notFull.Wait(p) != nil {
					return
				}
			}
			q.TryPut(i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for n := 1; ; n++ {
			if _, err := q.Get(p); err != nil {
				return
			}
			notFull.Signal()
			if n%rounds == 0 {
				k.Stop()
			}
		}
	})
	// Each Run is rounds handoffs. AllocsPerRun warms up with one (workers,
	// event heap, cancel cells, waiter storage), then averages the
	// process-wide malloc count over five more at GOMAXPROCS(1): a stray
	// allocation elsewhere in the test binary truncates away, while one per
	// Run or per handoff still fails.
	if allocs := testing.AllocsPerRun(5, func() { k.Run() }); allocs != 0 {
		t.Errorf("%d handoffs allocated %.0f times per Run, want 0", rounds, allocs)
	}
}
