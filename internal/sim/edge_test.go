package sim

import (
	"testing"
	"time"

	"pvmigrate/internal/errs"
)

func TestSpawnAtFuture(t *testing.T) {
	k := NewKernel()
	var startedAt Time
	k.SpawnAt(42*time.Second, "late", func(p *Proc) { startedAt = p.Now() })
	k.Run()
	if startedAt != 42*time.Second {
		t.Fatalf("started at %v", startedAt)
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*time.Second, func() {})
	fired := Time(-1)
	k.Schedule(5*time.Second, func() {
		k.Schedule(-3*time.Second, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 5*time.Second {
		t.Fatalf("negative-delay event fired at %v", fired)
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.Schedule(5*time.Second, func() {
		k.ScheduleAt(time.Second, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 5*time.Second {
		t.Fatalf("past event fired at %v", fired)
	}
}

func TestInterruptBeforeFirstDispatch(t *testing.T) {
	// Interrupt delivered while the proc is still waiting to start: the
	// pending interrupt surfaces at its first blocking call.
	k := NewKernel()
	var got any
	p := k.SpawnAt(5*time.Second, "late", func(p *Proc) {
		err := p.Sleep(time.Second)
		if ie, ok := IsInterrupted(err); ok {
			got = ie.Reason
		}
	})
	k.Schedule(time.Second, func() { p.Interrupt("early") })
	k.Run()
	if got != "early" {
		t.Fatalf("got %v", got)
	}
}

func TestQueuePutInterrupted(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 1)
	q.TryPut(1) // full
	var err error
	p := k.Spawn("prod", func(p *Proc) {
		err = q.Put(p, 2)
	})
	k.Schedule(time.Second, func() { p.Interrupt("stop") })
	k.Run()
	if _, ok := IsInterrupted(err); !ok {
		t.Fatalf("err = %v", err)
	}
	if q.Len() != 1 {
		t.Fatalf("queue corrupted: len %d", q.Len())
	}
}

func TestQueueClosedPut(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	q.Close()
	var err error
	k.Spawn("p", func(p *Proc) { err = q.Put(p, 1) })
	k.Run()
	if err != ErrQueueClosed || !errs.Is(err, CodeQueueClosed) {
		t.Fatalf("err = %v", err)
	}
	if q.TryPut(1) {
		t.Fatal("TryPut to closed queue succeeded")
	}
}

func TestCondLenCountsWaiters(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) { c.Wait(p) })
	}
	k.RunUntil(time.Second)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Broadcast()
	k.Run()
	if c.Len() != 0 {
		t.Fatalf("Len after broadcast = %d", c.Len())
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(2.5) != 2500*time.Millisecond {
		t.Fatal("FromSeconds wrong")
	}
	if Seconds(1500*time.Millisecond) != 1.5 {
		t.Fatal("Seconds wrong")
	}
}

func TestRunningAccessor(t *testing.T) {
	k := NewKernel()
	var inside, outside *Proc
	p := k.Spawn("me", func(pp *Proc) { inside = k.Running() })
	k.Run()
	outside = k.Running()
	if inside != p || outside != nil {
		t.Fatalf("Running: inside=%v outside=%v", inside, outside)
	}
}

func TestMaskedInterruptDoesNotWakeSleep(t *testing.T) {
	k := NewKernel()
	var woke Time
	p := k.Spawn("m", func(p *Proc) {
		p.MaskInterrupts()
		p.Sleep(10 * time.Second)
		woke = p.Now()
	})
	k.Schedule(time.Second, func() { p.Interrupt("x") })
	k.Run()
	if woke != 10*time.Second {
		t.Fatalf("masked sleep woke at %v", woke)
	}
	if p.InterruptsMasked() {
		// The body never unmasked; after done this is moot but the flag
		// should still read true.
		_ = p
	}
}

func TestYieldLetsOthersRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}
