package cluster

import (
	"testing"

	"pvmigrate/internal/sim"
)

func TestWorkDoneAccounting(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	k.Spawn("a", func(p *sim.Proc) { cpu.Compute(p, 3e6) })
	k.Spawn("b", func(p *sim.Proc) { cpu.Compute(p, 2e6) })
	k.Run()
	if got := cpu.totalDone; got < 5e6-1 || got > 5e6+1 {
		t.Fatalf("WorkDone = %f", got)
	}
	if cpu.Speed() != 1e6 {
		t.Fatalf("Speed = %f", cpu.Speed())
	}
}

func TestLoadJobAccumulatesWork(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(k, 1e6)
	h := cpu.AddLoad()
	k.Spawn("a", func(p *sim.Proc) { cpu.Compute(p, 1e6) }) // 2 s shared
	k.Run()
	h.Remove()
	// During the 2 s the load job also consumed ~1e6 units.
	if got := cpu.totalDone; got < 1.9e6 || got > 2.1e6 {
		t.Fatalf("WorkDone with load = %f", got)
	}
}

func TestNewCPUPanicsOnBadSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed accepted")
		}
	}()
	NewCPU(sim.NewKernel(), 0)
}

func TestDefaultHostSpec(t *testing.T) {
	s := DefaultHostSpec("x")
	if s.Name != "x" || s.Arch == "" || s.Speed <= 0 || s.MemMB <= 0 {
		t.Fatalf("spec = %+v", s)
	}
}
