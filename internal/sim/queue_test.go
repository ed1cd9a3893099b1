package sim

import (
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	var got []int
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, err := q.Get(p)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = append(got, v)
		}
	})
	k.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	q := NewQueue[string](k, 0)
	var at Time
	k.Spawn("cons", func(p *Proc) {
		v, err := q.Get(p)
		if err != nil || v != "x" {
			t.Errorf("Get = %q, %v", v, err)
		}
		at = p.Now()
	})
	k.Spawn("prod", func(p *Proc) {
		p.Sleep(4 * time.Second)
		q.Put(p, "x")
	})
	k.Run()
	if at != 4*time.Second {
		t.Fatalf("consumer woke at %v", at)
	}
}

func TestQueueBoundedPutBlocks(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 2)
	var putDone Time
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if err := q.Put(p, i); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		putDone = p.Now()
	})
	k.Spawn("cons", func(p *Proc) {
		p.Sleep(5 * time.Second)
		if _, err := q.Get(p); err != nil {
			t.Errorf("Get: %v", err)
		}
	})
	k.Run()
	if putDone != 5*time.Second {
		t.Fatalf("third Put completed at %v, want 5s (after a Get)", putDone)
	}
}

func TestQueueClose(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	q.TryPut(42)
	var got []int
	var finalErr error
	k.Spawn("cons", func(p *Proc) {
		for {
			v, err := q.Get(p)
			if err != nil {
				finalErr = err
				return
			}
			got = append(got, v)
		}
	})
	k.Schedule(time.Second, func() { q.Close() })
	k.Run()
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("pre-close item lost: %v", got)
	}
	if finalErr != ErrQueueClosed {
		t.Fatalf("err = %v", finalErr)
	}
}

func TestQueueTryOps(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 1)
	if !q.TryPut(1) {
		t.Fatal("TryPut on empty bounded queue failed")
	}
	if q.TryPut(2) {
		t.Fatal("TryPut on full queue succeeded")
	}
	if got := q.Drain(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("queue holds %v, want [1]", got)
	}
}

func TestQueueDrain(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	for i := 0; i < 4; i++ {
		q.TryPut(i)
	}
	got := q.Drain()
	if len(got) != 4 || q.Len() != 0 {
		t.Fatalf("Drain = %v, Len = %d", got, q.Len())
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			if err := c.Wait(p); err == nil {
				woken++
			}
		})
	}
	k.Schedule(time.Second, func() { c.Signal() })
	blocked := k.Run()
	if woken != 1 || blocked != 2 {
		t.Fatalf("woken = %d blocked = %d", woken, blocked)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			if err := c.Wait(p); err == nil {
				woken++
			}
		})
	}
	k.Schedule(time.Second, func() { c.Broadcast() })
	if blocked := k.Run(); blocked != 0 || woken != 3 {
		t.Fatalf("woken = %d blocked = %d", woken, blocked)
	}
}

func TestCondSignalSkipsInterruptedWaiter(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	var events []string
	a := k.Spawn("a", func(p *Proc) {
		if _, ok := IsInterrupted(c.Wait(p)); ok {
			events = append(events, "a-intr")
		}
	})
	k.Spawn("b", func(p *Proc) {
		if err := c.Wait(p); err == nil {
			events = append(events, "b-signal")
		}
	})
	k.Schedule(1*time.Second, func() { a.Interrupt("x") })
	k.Schedule(2*time.Second, func() { c.Signal() }) // must reach b, not stale a
	if blocked := k.Run(); blocked != 0 {
		t.Fatalf("blocked = %d; events = %v", blocked, events)
	}
	if len(events) != 2 || events[0] != "a-intr" || events[1] != "b-signal" {
		t.Fatalf("events = %v", events)
	}
}
