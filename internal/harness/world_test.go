package harness

import (
	"runtime"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/upvm"
)

// TestWorldCloseLeavesNoGoroutines: World.Close is the one place a run's
// kernel ends, for every assembly a WorldSpec allows. Each case parks a proc
// of its own beside whatever the assembly parks (daemons, heartbeats, the
// GS), closes the world twice, and must leave no proc blocked and the
// process's goroutine count where the first, pool-filling run left it.
func TestWorldCloseLeavesNoGoroutines(t *testing.T) {
	hosts := Workstations(3, "host%d", 1)
	fleet := gs.DefaultFleetPolicy()
	forever := func(t *pvm.Task) {
		// lint:reason parks until Close unwinds it; the error is the unwind
		_, _, _, _ = t.Recv(core.AnyTID, core.AnyTag)
	}
	for _, c := range []struct {
		name  string
		spec  WorldSpec
		start func(t *testing.T, w *World)
	}{
		{"no-system+CountTarget", WorldSpec{Hosts: hosts, Fleet: &fleet}, func(t *testing.T, w *World) {
			w.Counts.Seed(1, 4)
			w.Fleet.Start()
			w.K.Spawn("parked", func(p *sim.Proc) { _ = p.Sleep(time.Hour) })
		}},
		{"PVM", WorldSpec{Hosts: hosts, System: PVM}, func(t *testing.T, w *World) {
			if _, err := w.Machine.Spawn(1, "parked", forever); err != nil {
				t.Fatal(err)
			}
		}},
		{"MPVM+VPTarget+fleet", WorldSpec{Hosts: hosts, System: MPVM, Fleet: &fleet}, func(t *testing.T, w *World) {
			mt, err := w.MPVM.SpawnMigratable(1, "parked", 1<<20, func(mt *mpvm.MTask) { forever(mt.Task) })
			if err != nil {
				t.Fatal(err)
			}
			w.VPs.Track(mt.OrigTID())
			w.Fleet.Start()
		}},
		{"MPVM+FT", WorldSpec{Hosts: hosts, System: MPVM, Trace: true, FT: &ft.Config{}}, func(t *testing.T, w *World) {
			if _, err := w.MPVM.SpawnMigratable(1, "parked", 1<<20, func(mt *mpvm.MTask) { forever(mt.Task) }); err != nil {
				t.Fatal(err)
			}
			w.Fleet.Start()
		}},
		{"UPVM", WorldSpec{Hosts: hosts, System: UPVM}, func(t *testing.T, w *World) {
			specs := []upvm.ULPSpec{{Host: 1, DataBytes: 1 << 10}}
			if _, err := w.UPVM.Start("parked", specs, func(u *upvm.ULP, _ int) {
				// lint:reason parks until Close unwinds it; the error is the unwind
				_, _, _, _ = u.Recv(core.AnyTID, core.AnyTag)
			}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		run := func() {
			w := NewWorld(c.spec)
			c.start(t, w)
			w.K.RunUntil(10 * time.Second)
			if len(w.K.Blocked()) == 0 {
				t.Fatalf("%s: nothing parked before Close", c.name)
			}
			w.Close()
			w.Close()
			if blocked := w.K.Blocked(); len(blocked) != 0 {
				t.Fatalf("%s: still blocked after Close: %v", c.name, blocked)
			}
		}
		run()
		base := runtime.NumGoroutine()
		for i := 0; i < 2; i++ {
			run()
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%s: %d goroutines after the first world, %d after two more", c.name, base, got)
		}
	}
}
