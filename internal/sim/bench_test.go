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

func BenchmarkProcContextSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
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
