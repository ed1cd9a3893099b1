package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

// TestWorkDoneBitDeterministic: WorkDone is a float sum over the run queue,
// so its last bit depends on the order of the walk. The queue is walked in
// admission order; identical runs must agree to the bit.
func TestWorkDoneBitDeterministic(t *testing.T) {
	run := func() uint64 {
		k := sim.NewKernel()
		cpu := NewCPU(k, 1e6)
		h := cpu.AddLoad()
		for i := 0; i < 7; i++ {
			work := 1e6 / float64(3+2*i) * float64(i+1)
			k.Spawn("job", func(p *sim.Proc) { cpu.Compute(p, work) })
		}
		k.Run()
		h.Remove()
		return math.Float64bits(cpu.WorkDone())
	}
	want := run()
	for i := 1; i < 200; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: WorkDone bits %#x, first run %#x", i, got, want)
		}
	}
}

// TestSameInstantCompletionsWakeInAdmissionOrder: five equal jobs finish at
// one instant while the queue around them is disturbed from the front (a
// load job removed), the middle (a Compute interrupted) and kept by a
// longer job admitted between them.
func TestSameInstantCompletionsWakeInAdmissionOrder(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	h := cpu.AddLoad()
	var woke []int
	var victim *sim.Proc
	var victimRem float64
	var victimErr error
	for i := 0; i < 6; i++ {
		p := k.Spawn("job", func(p *sim.Proc) {
			if i == 2 {
				victimRem, victimErr = cpu.Compute(p, 1e6)
				return
			}
			if rem, err := cpu.Compute(p, 1e6); rem != 0 || err != nil {
				t.Errorf("job %d: Compute = %f, %v", i, rem, err)
			}
			woke = append(woke, i)
		})
		if i == 2 {
			victim = p
			k.Spawn("long", func(p *sim.Proc) { cpu.Compute(p, 50e6) })
		}
	}
	active := func(want int, when string) {
		t.Helper()
		if got := cpu.ActiveJobs(); got != want {
			t.Fatalf("ActiveJobs %s = %d, want %d", when, got, want)
		}
	}
	k.RunUntil(time.Second)
	active(8, "with everything admitted")
	victim.Interrupt("migrate")
	k.RunUntil(2 * time.Second)
	active(7, "after the interrupt")
	if _, ok := sim.IsInterrupted(victimErr); !ok || victimRem <= 0 || victimRem >= 1e6 {
		t.Fatalf("interrupted Compute = %f, %v", victimRem, victimErr)
	}
	h.Remove()
	h.Remove() // twice is a no-op
	active(6, "after removing the load")
	k.RunUntil(10 * time.Second)
	if want := []int{0, 1, 3, 4, 5}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("wake order %v, want admission order %v", woke, want)
	}
	active(1, "after the simultaneous completions")
	k.Run()
	active(0, "at the end")
}

// TestComputeWarmZeroAlloc is the run-time face of the noalloc lint roots
// on the CPU: once the free list, the run queue and each job's waiter slice
// have been through one round, admitting, sharing, completing and waking
// allocate nothing.
func TestComputeWarmZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	cpu.AddLoad()
	stop := false
	for i := 0; i < 3; i++ {
		work := 1e5 * float64(i+1)
		k.Spawn("job", func(p *sim.Proc) {
			for !stop {
				cpu.Compute(p, work)
			}
		})
	}
	k.RunUntil(10 * time.Second)
	before := cpu.WorkDone()
	allocs := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + time.Second) })
	if allocs != 0 {
		t.Fatalf("warm CPU allocates %v per simulated second, want 0", allocs)
	}
	if cpu.WorkDone() <= before {
		t.Fatal("no work was done inside the measured window")
	}
	stop = true
	k.RunUntil(k.Now() + 10*time.Second)
}
