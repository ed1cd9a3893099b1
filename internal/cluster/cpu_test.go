package cluster

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pvmigrate/internal/sim"
)

func TestComputeIdleCPU(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6) // 1M units/s
	var done sim.Time
	k.Spawn("job", func(p *sim.Proc) {
		if rem, err := cpu.Compute(p, 2e6); err != nil || rem != 0 {
			t.Errorf("Compute = %f, %v", rem, err)
		}
		done = p.Now()
	})
	k.Run()
	if done != 2*time.Second {
		t.Fatalf("done at %v, want 2s", done)
	}
}

func TestProcessorSharingTwoEqualJobs(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("job", func(p *sim.Proc) {
			cpu.Compute(p, 1e6)
			ends = append(ends, p.Now())
		})
	}
	k.Run()
	// Two 1s jobs sharing: both finish at 2s.
	for _, e := range ends {
		if e != 2*time.Second {
			t.Fatalf("ends = %v, want both 2s", ends)
		}
	}
}

func TestProcessorSharingStaggeredArrival(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	var endA, endB sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		cpu.Compute(p, 2e6)
		endA = p.Now()
	})
	k.SpawnAt(time.Second, "b", func(p *sim.Proc) {
		cpu.Compute(p, 2e6)
		endB = p.Now()
	})
	k.Run()
	// a runs alone 0–1s (1M done), shares 1–3s (1M more) → ends at 3s.
	// b shares 1–3s (1M done), runs alone 3–4s (1M more) → ends at 4s.
	if endA != 3*time.Second {
		t.Fatalf("endA = %v, want 3s", endA)
	}
	if endB != 4*time.Second {
		t.Fatalf("endB = %v, want 4s", endB)
	}
}

func TestBackgroundLoadHalvesRate(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	h := cpu.AddLoad()
	var done sim.Time
	k.Spawn("job", func(p *sim.Proc) {
		cpu.Compute(p, 1e6)
		done = p.Now()
	})
	k.Run()
	if done != 2*time.Second {
		t.Fatalf("loaded compute took %v, want 2s", done)
	}
	h.Remove()
	if cpu.ActiveJobs() != 0 {
		t.Fatalf("jobs after removal = %d", cpu.ActiveJobs())
	}
	h.Remove() // double remove is a no-op
}

func TestLoadRemovalMidJobSpeedsUp(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	h := cpu.AddLoad()
	k.Schedule(time.Second, func() { h.Remove() })
	var done sim.Time
	k.Spawn("job", func(p *sim.Proc) {
		cpu.Compute(p, 1e6)
		done = p.Now()
	})
	k.Run()
	// Shared 0–1s (0.5M done), alone afterwards (0.5M in 0.5s) → 1.5s.
	if done != 1500*time.Millisecond {
		t.Fatalf("done at %v, want 1.5s", done)
	}
}

func TestComputeInterruptReturnsRemaining(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	var rem float64
	var err error
	pr := k.Spawn("job", func(p *sim.Proc) {
		rem, err = cpu.Compute(p, 10e6)
	})
	k.Schedule(3*time.Second, func() { pr.Interrupt("migrate") })
	k.Run()
	if _, ok := sim.IsInterrupted(err); !ok {
		t.Fatalf("err = %v", err)
	}
	if math.Abs(rem-7e6) > 1 {
		t.Fatalf("remaining = %f, want 7e6", rem)
	}
	if cpu.ActiveJobs() != 0 {
		t.Fatal("interrupted job still on CPU")
	}
}

func TestComputeResumeAfterInterrupt(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	var done sim.Time
	pr := k.Spawn("job", func(p *sim.Proc) {
		rem, err := cpu.Compute(p, 4e6)
		if _, ok := sim.IsInterrupted(err); !ok {
			t.Errorf("want interrupt, got %v", err)
			return
		}
		// Simulate a 2 s migration pause, then resume elsewhere (same CPU
		// here, for simplicity).
		p.Sleep(2 * time.Second)
		if rem2, err := cpu.Compute(p, rem); err != nil || rem2 != 0 {
			t.Errorf("resume: %f, %v", rem2, err)
		}
		done = p.Now()
	})
	k.Schedule(1*time.Second, func() { pr.Interrupt("migrate") })
	k.Run()
	// 1s work + 2s pause + 3s remaining work = 6s.
	if done != 6*time.Second {
		t.Fatalf("done at %v, want 6s", done)
	}
}

// Property: total work completed is conserved under arbitrary job sets —
// the CPU never creates or destroys work.
func TestPropWorkConservation(t *testing.T) {
	f := func(works []uint16, starts []uint8) bool {
		if len(works) == 0 || len(works) > 8 {
			return true
		}
		k := sim.NewKernel()
		cpu := NewCPU(k, 1000)
		var total float64
		for i, w := range works {
			work := float64(w%5000) + 1
			total += work
			var at sim.Time
			if i < len(starts) {
				at = sim.Time(starts[i]) * 100 * time.Millisecond
			}
			k.SpawnAt(at, "j", func(p *sim.Proc) {
				cpu.Compute(p, work)
			})
		}
		if blocked := k.Run(); blocked != 0 {
			return false
		}
		return math.Abs(cpu.totalDone-total) < 1e-6*total+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with n equal simultaneous jobs, each takes exactly n times the
// solo duration (egalitarian sharing).
func TestPropEqualSharing(t *testing.T) {
	f := func(nJobs uint8, workSeed uint16) bool {
		n := int(nJobs)%6 + 1
		work := float64(workSeed%1000) + 100
		k := sim.NewKernel()
		cpu := NewCPU(k, 1000)
		var ends []sim.Time
		for i := 0; i < n; i++ {
			k.Spawn("j", func(p *sim.Proc) {
				cpu.Compute(p, work)
				ends = append(ends, p.Now())
			})
		}
		k.Run()
		want := sim.FromSeconds(work * float64(n) / 1000)
		for _, e := range ends {
			if d := e - want; d < -time.Microsecond || d > time.Microsecond {
				return false
			}
		}
		return len(ends) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A copy of a load handle removed after the original cannot withdraw the
// load the CPU recycled its job into, nor put that job on the free list
// twice.
func TestStaleLoadHandleRemoveIsNoOp(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	a := cpu.AddLoad()
	stale, j := a, a.job
	a.Remove()
	b := cpu.AddLoad()
	if b.job != j {
		t.Fatal("AddLoad did not recycle the removed load's job")
	}
	stale.Remove()
	if cpu.ActiveJobs() != 1 {
		t.Fatalf("a stale handle's Remove left %d jobs, want the recycled load", cpu.ActiveJobs())
	}
	b.Remove()
	stale.Remove()
	if cpu.ActiveJobs() != 0 || len(cpu.free) != 1 {
		t.Fatalf("after removal: %d jobs and %d free, want 0 and the one job once", cpu.ActiveJobs(), len(cpu.free))
	}
}
