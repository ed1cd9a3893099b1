package mpvm

import (
	"fmt"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// TestMigrationStormRing runs a ring of workers continuously passing
// messages while a storm of random (valid) migrations reshuffles them
// across four hosts. Invariants: every message is delivered exactly once in
// per-sender order, every worker finishes, nothing is stranded at any
// daemon, and all initiated migrations complete.
func TestMigrationStormRing(t *testing.T) {
	const (
		nHosts   = 4
		nWorkers = 4
		rounds   = 25
	)
	for trial := 0; trial < 3; trial++ {
		k, s := testSystem(t, nHosts)
		rng := sim.NewRNG(uint64(1000 + trial))

		workers := make([]*MTask, nWorkers)
		received := make([][]int, nWorkers)
		var done int
		for i := 0; i < nWorkers; i++ {
			i := i
			mt, err := s.SpawnMigratable(i%nHosts, fmt.Sprintf("ring%d", i), 1<<20,
				func(mt *MTask) {
					next := workers[(i+1)%nWorkers].OrigTID()
					for r := 0; r < rounds; r++ {
						// A little compute so migrations can land mid-burst.
						if err := mt.Compute(mt.Host().Spec().Speed * 0.3); err != nil {
							t.Errorf("worker %d compute: %v", i, err)
							return
						}
						buf := core.NewBuffer().PkInt(r).PkVirtual(30_000)
						if err := mt.Send(next, 5, buf); err != nil {
							t.Errorf("worker %d send: %v", i, err)
							return
						}
						_, _, rd, err := mt.Recv(core.AnyTID, 5)
						if err != nil {
							t.Errorf("worker %d recv: %v", i, err)
							return
						}
						v := rd.UpkInt()
						received[i] = append(received[i], v)
					}
					done++
				})
			if err != nil {
				t.Fatal(err)
			}
			workers[i] = mt
		}

		// Storm: every ~2 s, try to migrate a random worker to a random
		// other host. Invalid attempts (already migrating, same host) are
		// skipped.
		attempted := 0
		var storm func()
		storm = func() {
			if attempted >= 12 {
				return
			}
			attempted++
			w := workers[rng.Intn(nWorkers)]
			if !w.Migrating() && !w.Exited() {
				dest := rng.Intn(nHosts)
				if dest != int(w.Host().ID()) {
					s.Migrate(w.OrigTID(), dest, core.ReasonRebalance)
				}
			}
			k.Schedule(2*time.Second, storm)
		}
		k.Schedule(3*time.Second, storm)

		k.RunUntil(30 * time.Minute)

		if done != nWorkers {
			t.Fatalf("trial %d: %d of %d workers finished; blocked: %v",
				trial, done, nWorkers, k.Blocked())
		}
		for i, seq := range received {
			if len(seq) != rounds {
				t.Fatalf("trial %d: worker %d received %d of %d", trial, i, len(seq), rounds)
			}
			for r, v := range seq {
				if v != r {
					t.Fatalf("trial %d: worker %d out of order at %d: %v", trial, i, r, seq)
				}
			}
		}
		for h := 0; h < nHosts; h++ {
			if held := s.Machine().Daemon(h).HeldMessages(); len(held) != 0 {
				t.Fatalf("trial %d: %d stranded messages at daemon %d", trial, len(held), h)
			}
		}
		if len(s.migrations) != 0 {
			t.Fatalf("trial %d: %d migrations never completed", trial, len(s.migrations))
		}
		// Records are sane.
		for _, r := range s.Records() {
			if r.Obtrusiveness() <= 0 || r.Cost() < r.Obtrusiveness() {
				t.Fatalf("trial %d: bad record %+v", trial, r)
			}
		}
		if len(s.Records()) == 0 {
			t.Fatalf("trial %d: storm produced no migrations", trial)
		}
	}
}

// TestManySequentialMigrations bounces one worker around a 3-host cluster
// many times; the tid remap chains must stay consistent for senders using
// the original tid throughout.
func TestManySequentialMigrations(t *testing.T) {
	k, s := testSystem(t, 3)
	const hops = 8
	victim, _ := s.SpawnMigratable(0, "nomad", 1<<20, func(mt *MTask) {
		for i := 0; i < hops+2; i++ {
			_, _, r, err := mt.Recv(core.AnyTID, 1)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			v := r.UpkInt()
			src, _, _, err := core.NoTID, 0, r, error(nil)
			_ = src
			mt.Send(core.MakeTID(1, 1), 2, core.NewBuffer().PkInt(v*2))
		}
	})
	var echoes []int
	s.SpawnMigratable(1, "prober", 1<<10, func(mt *MTask) {
		for i := 0; i < hops+2; i++ {
			mt.Proc().Sleep(12 * time.Second)
			if err := mt.Send(victim.OrigTID(), 1, core.NewBuffer().PkInt(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			_, _, r, err := mt.Recv(core.AnyTID, 2)
			if err != nil {
				t.Errorf("echo %d: %v", i, err)
				return
			}
			v := r.UpkInt()
			echoes = append(echoes, v)
		}
	})
	// One migration between each probe: 0→1→2→0→...
	for i := 0; i < hops; i++ {
		dest := (i + 1) % 3
		k.Schedule(time.Duration(6+12*i)*time.Second, func() {
			s.Migrate(victim.OrigTID(), dest, core.ReasonRebalance)
		})
	}
	k.RunUntil(time.Hour)
	if len(echoes) != hops+2 {
		t.Fatalf("echoes = %v (blocked: %v)", echoes, k.Blocked())
	}
	for i, v := range echoes {
		if v != i*2 {
			t.Fatalf("echo %d = %d", i, v)
		}
	}
	if got := len(s.Records()); got != hops {
		t.Fatalf("migrations completed = %d, want %d", got, hops)
	}
}
