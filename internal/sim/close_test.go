package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// simGoroutines counts the goroutines whose stacks run this package's code:
// the pool's workers, parked procs and the test itself. A goroutine that
// another part of the test binary starts or ends between two samples does
// not move it, so a change means sim itself started or kept one.
func simGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("pvmigrate/internal/sim.")) {
			count++
		}
	}
	return count
}

// idleWorkers is the pool's current size.
func idleWorkers() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.free)
}

// parkedKernel builds a kernel with n procs parked on a Cond nobody signals.
func parkedKernel(n int) *Kernel {
	k := NewKernel()
	never := NewCond(k)
	for i := 0; i < n; i++ {
		k.Spawn("parked", func(p *Proc) { never.Wait(p) })
	}
	if blocked := k.Run(); blocked != n {
		panic(fmt.Sprintf("parkedKernel: %d blocked, want %d", blocked, n))
	}
	return k
}

func TestCloseUnwindsParkedProcs(t *testing.T) {
	k := NewKernel()
	never := NewCond(k)
	var order []string
	sleeper := k.Spawn("sleeper", func(p *Proc) {
		defer func() { order = append(order, "outer") }()
		defer func() {
			// A blocking call while unwinding must neither hang nor
			// return: it continues the unwind.
			p.Sleep(time.Hour)
			order = append(order, "unreachable")
		}()
		defer func() { order = append(order, "inner") }()
		p.Sleep(time.Hour)
		order = append(order, "unreachable")
	})
	waiter := k.Spawn("waiter", func(p *Proc) { never.Wait(p) })
	joiner := k.Spawn("joiner", func(p *Proc) {
		for !waiter.Done() {
			never.Wait(p)
		}
	})
	finished := k.Spawn("finished", func(p *Proc) {})
	if blocked := k.RunUntil(time.Second); blocked != 3 {
		t.Fatalf("RunUntil = %d blocked (%v), want 3", blocked, k.Blocked())
	}
	idle, goroutines := idleWorkers(), simGoroutines()

	k.Close()
	if want := []string{"inner", "outer"}; !reflect.DeepEqual(order, want) {
		t.Errorf("deferred calls ran as %v, want %v", order, want)
	}
	for _, p := range []*Proc{sleeper, waiter, joiner, finished} {
		if !p.Done() {
			t.Errorf("proc %q not done after Close", p.Name())
		}
	}
	if names := k.Blocked(); len(names) != 0 {
		t.Errorf("Blocked() = %v after Close", names)
	}
	if got := idleWorkers(); got != idle+3 {
		t.Errorf("pool holds %d workers, want %d: the three parked procs' workers come back", got, idle+3)
	}
	if got := simGoroutines(); got != goroutines {
		t.Errorf("sim goroutines %d -> %d across Close", goroutines, got)
	}

	k.Close() // idempotent
	if got := idleWorkers(); got != idle+3 {
		t.Errorf("second Close moved the pool: %d workers, want %d", got, idle+3)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "closed kernel") {
			t.Errorf("Run after Close: recovered %v, want the closed-kernel panic", r)
		}
	}()
	k.Run()
}

func TestCloseOnNeverStartedProc(t *testing.T) {
	k := NewKernel()
	ran := false
	p := k.SpawnAt(time.Hour, "late", func(p *Proc) { ran = true })
	k.RunUntil(time.Second)
	idle := idleWorkers()
	k.Close()
	if ran {
		t.Error("Close ran the body of a proc that had not started")
	}
	if !p.Done() || len(k.Blocked()) != 0 {
		t.Errorf("Done() = %v, Blocked() = %v after Close", p.Done(), k.Blocked())
	}
	if got := idleWorkers(); got != idle {
		t.Errorf("pool %d -> %d: a proc that never started holds no worker", idle, got)
	}
}

// A proc spawned by a deferred call during the unwind never starts.
func TestCloseFinishesProcsSpawnedWhileUnwinding(t *testing.T) {
	k := NewKernel()
	ran := false
	var late *Proc
	k.Spawn("parent", func(p *Proc) {
		defer func() { late = k.Spawn("late", func(*Proc) { ran = true }) }()
		p.Sleep(time.Hour)
	})
	k.RunUntil(time.Second)
	k.Close()
	if ran || late == nil || !late.Done() {
		t.Errorf("late proc: ran=%v, proc=%v", ran, late)
	}
}

func TestWorkerReusedAcrossKernels(t *testing.T) {
	const procs = 8
	parkedKernel(procs).Close() // the pool now holds at least procs workers
	idle, goroutines := idleWorkers(), simGoroutines()
	// One iter.Pull costs about ten allocations; a spawn that reuses a
	// worker costs the Proc, its Cond and the waiter entry.
	perKernel := testing.AllocsPerRun(20, func() { parkedKernel(procs).Close() })
	if perProc := perKernel / procs; perProc > 5 {
		t.Errorf("%.1f allocs per kernel, %.1f per proc: spawns are creating coroutines", perKernel, perProc)
	}
	if got := idleWorkers(); got != idle {
		t.Errorf("pool %d -> %d workers: a second kernel's spawns must reuse the first's", idle, got)
	}
	if got := simGoroutines(); got != goroutines {
		t.Errorf("sim goroutines %d -> %d", goroutines, got)
	}
}

// Run's return value is a counter kept at the state transitions, and a
// finished proc leaves k.procs, so neither grows with a session's history.
func TestFinishedProcsAreDropped(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	never := NewCond(k)
	k.Spawn("parked", func(p *Proc) { never.Wait(p) })
	for round := 0; round < 50; round++ {
		k.Spawn("short", func(p *Proc) { p.Sleep(time.Millisecond) })
		k.Spawn("shorter", func(p *Proc) {})
		if blocked := k.RunUntil(k.Now() + time.Second); blocked != 1 {
			t.Fatalf("round %d: %d blocked, want 1", round, blocked)
		}
		if len(k.procs) != 1 {
			t.Fatalf("round %d: kernel still holds %d procs, want the parked one", round, len(k.procs))
		}
	}
	k.Spawn("mid-sleep", func(p *Proc) { p.Sleep(time.Hour) })
	if blocked := k.RunUntil(k.Now() + time.Second); blocked != 2 {
		t.Fatalf("%d blocked, want 2", blocked)
	}
	if want := []string{"mid-sleep", "parked"}; !reflect.DeepEqual(k.Blocked(), want) {
		t.Fatalf("Blocked() = %v, want %v", k.Blocked(), want)
	}
}

func explode() { panic("kaboom") }

func TestProcPanicNamesProcAndStack(t *testing.T) {
	parkedKernel(1).Close() // the pool is not empty
	k := NewKernel()
	k.Spawn("fragile", func(p *Proc) {
		p.Sleep(time.Second)
		explode()
	})
	idle := idleWorkers()
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{`proc "fragile" panicked: kaboom`, "sim.explode"} {
			if !strings.Contains(msg, want) {
				t.Errorf("kernel panic does not contain %q:\n%s", want, msg)
			}
		}
		if got := idleWorkers(); got != idle {
			t.Errorf("pool %d -> %d: the worker must survive its tenant's panic", idle, got)
		}
	}()
	k.Run()
}
