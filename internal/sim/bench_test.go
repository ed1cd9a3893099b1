package sim

import (
	"testing"
	"time"
)

// The substrate's own performance: how fast the DES kernel processes events
// and context-switches procs. These bound how large a simulated scenario
// stays interactive. Every benchmark reports allocs/op because the hot-path
// contract is zero steady-state allocation (DESIGN.md §7); a regression here
// shows up as allocs/op > 0 before it shows up as ns/op.

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelScheduleDispatch is the steady-state schedule+dispatch
// cycle: a fixed population of in-flight events, each firing reschedules
// itself until the budget is spent. Unlike EventThroughput (which grows the
// heap to b.N before the timer starts), this holds the heap at a constant
// size, so the timed region covers exactly one heapPush + one heapPop per
// op with the free-list warm — the path every simulated scenario lives on,
// and the one that must run at 0 allocs/op.
func BenchmarkKernelScheduleDispatch(b *testing.B) {
	const population = 64
	k := NewKernel()
	left := b.N
	var tick func()
	tick = func() {
		left--
		if left >= population {
			k.Schedule(time.Microsecond, tick)
		}
	}
	for i := 0; i < population && i < b.N; i++ {
		k.Schedule(time.Duration(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcContextSwitch is one coroutine switch per op: two procs
// yield in turn, so each Yield's wake queues behind the other proc's and
// the kernel switches to it. (A lone yielding proc would resume in place
// and measure BenchmarkKernelSleepInPlace's path instead.)
func BenchmarkProcContextSwitch(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	left := b.N
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for left > 0 {
				left--
				p.Yield()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelSleepInPlace is one Sleep per op by a lone proc: its wake
// is always the next event, so the proc moves the clock itself and the wake
// never enters the queue (Proc.SleepUntil). It must run at 0 allocs/op.
func BenchmarkKernelSleepInPlace(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel()
	q := NewQueue[int](k, 0)
	k.Spawn("prod", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	k.Spawn("cons", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
