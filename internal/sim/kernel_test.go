package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(3*time.Second, func() { got = append(got, 3) })
	k.Schedule(1*time.Second, func() { got = append(got, 1) })
	k.Schedule(2*time.Second, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	k.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		if err := p.Sleep(5 * time.Second); err != nil {
			t.Errorf("Sleep: %v", err)
		}
		wake = p.Now()
	})
	if n := k.Run(); n != 0 {
		t.Fatalf("blocked procs: %d", n)
	}
	if wake != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", wake)
	}
}

func TestSleepUntilPastIsYield(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*time.Second, func() {})
	done := false
	k.SpawnAt(10*time.Second, "p", func(p *Proc) {
		if err := p.SleepUntil(3 * time.Second); err != nil {
			t.Errorf("SleepUntil: %v", err)
		}
		if p.Now() != 10*time.Second {
			t.Errorf("time moved backwards: %v", p.Now())
		}
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("proc never ran")
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	k := NewKernel()
	var trace []string
	mk := func(name string, period Time) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				if err := p.Sleep(period); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				trace = append(trace, name)
			}
		}
	}
	k.Spawn("a", mk("a", 2*time.Second))
	k.Spawn("b", mk("b", 3*time.Second))
	k.Run()
	// a wakes at 2,4,6; b at 3,6,9. At t=6, b's wake was scheduled at t=3
	// and a's at t=4, so the FIFO tie-break runs b first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(Time(i)*time.Second, func() {
			count++
			if count == 4 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 4 {
		t.Fatalf("processed %d events after Stop, want 4", count)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	c := NewCond(k)
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	if n := k.Run(); n != 1 {
		t.Fatalf("blocked = %d, want 1", n)
	}
	if names := k.Blocked(); len(names) != 1 || names[0] != "stuck" {
		t.Fatalf("Blocked() = %v", names)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) { panic("bad") })
	defer func() {
		if recover() == nil {
			t.Fatal("proc panic was swallowed")
		}
	}()
	k.Run()
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var trace []string
		q := NewQueue[string](k)
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			k.Spawn("prod-"+name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Millisecond)
					q.TryPut(name)
				}
			})
		}
		k.Spawn("cons", func(p *Proc) {
			for n := 0; n < 15; n++ {
				v, err := q.Get(p)
				if err != nil {
					return
				}
				trace = append(trace, v)
			}
		})
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}
