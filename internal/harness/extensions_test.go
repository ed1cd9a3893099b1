package harness

import (
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/ft"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/sim"
)

// TestExtensionCheckpointTradeOff holds Extension A's policies to the §5.0
// trade-off, measured on the MPVM owner-reclaim path and the FT stack.
func TestExtensionCheckpointTradeOff(t *testing.T) {
	pols := evictionPolicies()
	for _, p := range pols {
		if p.evicted.err != nil || p.quiet.err != nil {
			t.Fatalf("%s: evicted %v, quiet %v", p.name, p.evicted.err, p.quiet.err)
		}
	}
	migrate, ckpts := pols[0], pols[1:]
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"migrate-loses-no-work", func(t *testing.T) {
			// The eviction costs the run its migration pause and nothing
			// more: no work is redone.
			delay := migrate.evicted.completion - migrate.quiet.completion
			if migrate.evicted.lostWork != 0 || delay <= 0 || delay > migrate.evicted.obtrusiveness+time.Second {
				t.Errorf("lost %v, delayed %v by a %v migration", migrate.evicted.lostWork, delay, migrate.evicted.obtrusiveness)
			}
		}},
		{"migrate-finishes-first", func(t *testing.T) {
			for _, p := range ckpts {
				if migrate.evicted.completion >= p.evicted.completion {
					t.Errorf("migrate %v not before %s %v", migrate.evicted.completion, p.name, p.evicted.completion)
				}
			}
		}},
		{"crash-obtrusiveness-tiny", func(t *testing.T) {
			for _, p := range ckpts {
				if p.evicted.obtrusiveness >= migrate.evicted.obtrusiveness/10 {
					t.Errorf("%s obtrusiveness %v not ≪ migrate's %v", p.name, p.evicted.obtrusiveness, migrate.evicted.obtrusiveness)
				}
			}
		}},
		{"checkpointing-costs-without-eviction", func(t *testing.T) {
			for _, p := range ckpts {
				if p.quiet.completion <= migrate.quiet.completion || p.quiet.checkpoints < 1 {
					t.Errorf("%s quiet: %v with %d checkpoints vs MPVM %v",
						p.name, p.quiet.completion, p.quiet.checkpoints, migrate.quiet.completion)
				}
			}
		}},
		{"shorter-period-trades-overhead-for-loss", func(t *testing.T) {
			for i := 1; i < len(ckpts); i++ {
				short, long := ckpts[i-1].evicted, ckpts[i].evicted
				if short.checkpoints <= long.checkpoints || short.lostWork >= long.lostWork {
					t.Errorf("%s: %d checkpoints, lost %v; %s: %d, lost %v", ckpts[i-1].name,
						short.checkpoints, short.lostWork, ckpts[i].name, long.checkpoints, long.lostWork)
				}
			}
		}},
		{"loses-at-most-one-period", func(t *testing.T) {
			// The quiet run's mean time between checkpoints bounds one
			// period; the distribution before the first round only
			// lengthens the mean.
			for _, p := range ckpts {
				period := p.quiet.completion / sim.Time(p.quiet.checkpoints)
				if p.evicted.lostWork <= 0 || p.evicted.lostWork > period {
					t.Errorf("%s lost %v, one period is %v", p.name, p.evicted.lostWork, period)
				}
			}
		}},
		{"quiet-runs-report-no-eviction", func(t *testing.T) {
			for _, p := range pols {
				if p.quiet.obtrusiveness != 0 || p.quiet.lostWork != 0 {
					t.Errorf("%s quiet run: %+v", p.name, p.quiet)
				}
			}
		}},
		{"torn-round-resumes-from-previous", testTornRound},
	} {
		t.Run(c.name, c.check)
	}
}

// testTornRound interrupts the job inside the iteration-4
// checkpoint round. The round's commit point is the master's image, written
// first. An interrupt inside that write tears it, so the master resumes
// from iteration 2, the round before. A host crash alone cannot land there:
// the GS interrupts the master only on declaring the host dead, seconds
// after the ~70 ms write has committed, so that interrupt is the rollback
// HostDead sends, commanded at that instant. A crash while the slaves write
// their images resumes from the round's own iteration 4.
func testTornRound(t *testing.T) {
	// run closes its world; what the test reads afterwards (the trace, the
	// store's ledger) outlives the kernel.
	run := func(at func(w *World)) (*World, int) {
		w := NewWorld(WorldSpec{Hosts: Workstations(evictHosts, "host%d", 1), System: MPVM, Trace: true,
			FT: &ft.Config{CheckpointEvery: 2}})
		defer w.Close()
		job, err := ft.StartJob(w.Mgr, ft.JobSpec{
			Opt:        opt.Params{TotalBytes: evictBytes, Iterations: evictIterations},
			SlaveHosts: []int{1, 2},
			OnFinish:   func(*ft.JobResult) { w.K.Stop() },
		})
		if err != nil {
			t.Fatal(err)
		}
		at(w)
		w.Fleet.Start()
		w.K.RunUntil(survivalRunCap)
		if res := job.Out(); !res.Done {
			t.Fatalf("job did not finish: %v", res.Err)
		}
		resumed := -1
		for _, s := range w.Mgr.AppliedStamps() {
			if s.Epoch == 1 {
				resumed = s.Iter
				break
			}
		}
		return w, resumed
	}
	quiet, _ := run(func(*World) {})
	flush, closed := sim.Time(-1), sim.Time(-1)
	for _, e := range quiet.Log.Events() {
		if strings.HasPrefix(e.Detail, "iter 4:") {
			switch e.Stage {
			case "ckpt:flush":
				flush = e.At
			case "ckpt:commit":
				closed = e.At
			}
		}
	}
	if flush < 0 || closed < 0 {
		t.Fatal("no iteration-4 checkpoint round")
	}
	// The round's first commit after the flush is the master's image.
	var written sim.Time
	for _, s := range quiet.Mgr.Store().Commits() {
		if s.WrittenAt > flush {
			written = s.WrittenAt
			break
		}
	}
	_, resumed := run(func(w *World) {
		w.K.ScheduleAt(flush+(written-flush)/2, func() {
			if err := w.Mgr.ForceRollback(); err != nil {
				t.Error(err)
			}
		})
	})
	if resumed != 2 {
		t.Errorf("rollback inside the iteration-4 master write resumed at iteration %d, want 2", resumed)
	}
	_, resumed = run(func(w *World) {
		w.Inj.Install(ft.Plan{Faults: []ft.Fault{{At: (written + closed) / 2, Kind: ft.HostCrash, Host: evictHost}}})
	})
	if resumed != 4 {
		t.Errorf("crash while the slaves write their iteration-4 images resumed at iteration %d, want 4", resumed)
	}
}
