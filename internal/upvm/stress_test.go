package upvm

import (
	"fmt"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// TestULPStormRing runs a ring of ULPs over 3 hosts while random ULP
// migrations reshuffle them: messages must survive with per-sender
// ordering, and all migrations must complete.
func TestULPStormRing(t *testing.T) {
	const (
		nHosts = 3
		nULPs  = 5
		rounds = 20
	)
	for trial := 0; trial < 3; trial++ {
		k, s := testSystem(t, nHosts)
		rng := sim.NewRNG(uint64(7000 + trial))

		received := make([][]int, nULPs)
		var done int
		specs := make([]ULPSpec, nULPs)
		for i := range specs {
			specs[i] = ULPSpec{Host: i % nHosts, DataBytes: 200_000}
		}
		_, err := s.Start("ring", specs, func(u *ULP, rank int) {
			next := ULPTID((rank + 1) % nULPs)
			for r := 0; r < rounds; r++ {
				if err := u.Compute(u.Host().Spec().Speed * 0.2); err != nil {
					t.Errorf("ulp %d compute: %v", rank, err)
					return
				}
				if err := u.Send(next, 5, core.NewBuffer().PkInt(r).PkVirtual(10_000)); err != nil {
					t.Errorf("ulp %d send: %v", rank, err)
					return
				}
				_, _, rd, err := u.Recv(core.AnyTID, 5)
				if err != nil {
					t.Errorf("ulp %d recv: %v", rank, err)
					return
				}
				v := rd.UpkInt()
				received[rank] = append(received[rank], v)
			}
			done++
		})
		if err != nil {
			t.Fatal(err)
		}

		attempts := 0
		var storm func()
		storm = func() {
			if attempts >= 10 {
				return
			}
			attempts++
			id := rng.Intn(nULPs)
			u := s.ulps[id]
			if u != nil && !u.Migrating() && !u.Done() {
				dest := rng.Intn(nHosts)
				if dest != int(u.Host().ID()) {
					s.Migrate(id, dest, core.ReasonRebalance)
				}
			}
			k.Schedule(3*time.Second, storm)
		}
		k.Schedule(2*time.Second, storm)

		k.RunUntil(time.Hour)

		if done != nULPs {
			t.Fatalf("trial %d: %d of %d ULPs finished; blocked: %v",
				trial, done, nULPs, k.Blocked())
		}
		for i, seq := range received {
			if len(seq) != rounds {
				t.Fatalf("trial %d: ulp %d received %d of %d", trial, i, len(seq), rounds)
			}
			for r, v := range seq {
				if v != r {
					t.Fatalf("trial %d: ulp %d out of order: %v", trial, i, seq)
				}
			}
		}
		if len(s.Records()) == 0 {
			t.Fatalf("trial %d: storm produced no migrations", trial)
		}
		for _, r := range s.Records() {
			if r.Cost() <= 0 {
				t.Fatalf("trial %d: bad record %+v", trial, r)
			}
		}
		// No inbound transfers left dangling.
		for h := 0; h < nHosts; h++ {
			if n := len(s.procs[h].inbound); n != 0 {
				t.Fatalf("trial %d: %d dangling inbound transfers at host %d", trial, n, h)
			}
		}
	}
}

// TestULPMigratesThroughAllHosts moves one ULP around every host in turn
// while its peer keeps talking to it at its stable tid.
func TestULPMigratesThroughAllHosts(t *testing.T) {
	k, s := testSystem(t, 2)
	const probes = 6
	var echoes []int
	s.Start("pair", []ULPSpec{
		{Host: 0, DataBytes: 150_000}, // nomad (echo server)
		{Host: 1, DataBytes: 10_000},  // prober
	}, func(u *ULP, rank int) {
		if rank == 0 {
			for i := 0; i < probes; i++ {
				src, _, r, err := u.Recv(core.AnyTID, 1)
				if err != nil {
					t.Errorf("nomad recv: %v", err)
					return
				}
				v := r.UpkInt()
				if err := u.Send(src, 2, core.NewBuffer().PkInt(v+100)); err != nil {
					t.Errorf("nomad send: %v", err)
					return
				}
			}
			return
		}
		for i := 0; i < probes; i++ {
			u.Proc().Sleep(20 * time.Second)
			if err := u.Send(ULPTID(0), 1, core.NewBuffer().PkInt(i)); err != nil {
				t.Errorf("probe send %d: %v", i, err)
				return
			}
			_, _, r, err := u.Recv(ULPTID(0), 2)
			if err != nil {
				t.Errorf("probe recv %d: %v", i, err)
				return
			}
			v := r.UpkInt()
			echoes = append(echoes, v)
		}
	})
	for i := 0; i < probes-1; i++ {
		dest := (i + 1) % 2
		k.Schedule(time.Duration(10+20*i)*time.Second, func() {
			s.Migrate(0, dest, core.ReasonRebalance)
		})
	}
	k.RunUntil(time.Hour)
	if len(echoes) != probes {
		t.Fatalf("echoes = %v (blocked: %v)", echoes, k.Blocked())
	}
	for i, v := range echoes {
		if v != i+100 {
			t.Fatalf("echo %d = %d", i, v)
		}
	}
	if got := len(s.Records()); got != probes-1 {
		t.Fatalf("migrations = %d, want %d", got, probes-1)
	}
	if fmt.Sprint(s.ulps[0].Mytid()) != fmt.Sprint(ULPTID(0)) {
		t.Fatal("ULP tid changed")
	}
}
