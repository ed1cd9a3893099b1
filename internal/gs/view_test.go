package gs

import (
	"fmt"
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

// TestShardViewTracksTarget pins the shards' tables on the state itself. A
// CountTarget world runs under seeded owner storms, crashes, partitions the
// GS declares dead, and rebalancing. Right after every beat each slot's
// load, run queue, donor and receiver eligibility equal the live host /
// target / Fleet.dead facts; at the end of the tick they still do (nothing
// runs inside a tick but MoveOne, which applyMove mirrors exactly for a
// CountTarget); and every remote vector whose epoch is current equals its
// sender's field for field and is a copy of it.
func TestShardViewTracksTarget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    LoadSource
		shards int
	}{
		{"runqueue", SourceRunQueue, 1}, {"runqueue", SourceRunQueue, 8},
		{"workunits", SourceWorkUnits, 1}, {"workunits", SourceWorkUnits, 8},
	} {
		t.Run(fmt.Sprintf("%s/%dshards", tc.name, tc.shards), func(t *testing.T) {
			const (
				hosts = 48
				vps   = 600
				seed  = 0x71e3
			)
			dur := 4 * time.Minute
			k, cl, tgt := countWorld(hosts, vps, seed, dur)
			hs := cl.Hosts()
			hb := &partitionBeats{k: k, cut: map[int]sim.Time{}}
			rng := sim.NewRNG(seed ^ 0xdead)
			for at := 3 * time.Second; at < dur; at += 11 * time.Second {
				crash, cut := rng.Intn(hosts), rng.Intn(hosts)
				k.Schedule(at, func() { hs[crash].Fail(); hb.cut[cut] = k.Now() })
				k.Schedule(at+27*time.Second, func() { hs[crash].Recover(); delete(hb.cut, cut) })
			}

			pol := DefaultFleetPolicy()
			pol.Shards = tc.shards
			pol.Source = tc.src
			pol.LoadThreshold = 2
			pol.MovesPerTick = 3
			pol.Seed = seed
			pol.HeartbeatInterval = time.Second
			pol.SuspectAfter = 3 * time.Second
			f := NewFleet(cl, tgt, pol)
			f.SetHeartbeatSource(hb)

			var sawDown, sawDead, sawOwner, sawRemote bool
			checkSlots := func(when string) {
				for _, s := range f.shards {
					for i := 0; i < s.n; i++ {
						id := s.base + i
						alive := hs[id].Alive() && !f.dead[id]
						elig := alive && !hs[id].OwnerActive()
						if s.view.Load(i) != tgt.HostLoad(id) || s.runq[i] != hs[id].LoadAverage() ||
							s.donorOK[i] != alive || s.elig[i] != elig {
							t.Fatalf("%v %s: host %d view (load %d, runq %d, donor %v, elig %v), live (%d, %d, %v, %v)",
								k.Now(), when, id, s.view.Load(i), s.runq[i], s.donorOK[i], s.elig[i],
								tgt.HostLoad(id), hs[id].LoadAverage(), alive, elig)
						}
						sawDown = sawDown || !hs[id].Alive()
						sawDead = sawDead || f.dead[id]
						sawOwner = sawOwner || hs[id].OwnerActive()
					}
				}
			}
			checkRemotes := func() {
				for _, to := range f.shards {
					for _, from := range f.shards {
						got := to.remote[from.id]
						if from == to || got.epoch != f.epoch {
							continue
						}
						sawRemote = true
						if got != from.vec {
							t.Fatalf("%v: shard %d holds %+v from shard %d, which sent %+v", k.Now(), to.id, got, from.id, from.vec)
						}
						from.vec.minLoad++
						if to.remote[from.id] != got {
							t.Fatalf("shard %d's vector from shard %d aliases the sender's", to.id, from.id)
						}
						from.vec.minLoad--
					}
				}
			}
			// tick reschedules f.tickFn, so the wrapper rides every tick. Its
			// own beat is the one checked; tick's repeats it over the same
			// facts (a beat keeps nothing between calls).
			f.tickFn = func() {
				for _, s := range f.shards {
					f.beatShard(s)
				}
				checkSlots("after the beat")
				f.tick()
				checkSlots("at the end of the tick")
				checkRemotes()
			}
			f.Start()
			k.RunUntil(dur)

			moves := 0
			f.EachDecision(func(d Decision) {
				if d.Dest >= 0 && d.Err == nil {
					moves++
				}
			})
			if !sawDown || !sawDead || !sawOwner || moves == 0 || sawRemote != (tc.shards > 1) {
				t.Fatalf("world too quiet to pin the view: crashed %v, declared dead %v, owner %v, %d moves, current remote vector %v",
					sawDown, sawDead, sawOwner, moves, sawRemote)
			}
		})
	}
}

// TestShardOfMatchesPartition checks the owner arithmetic against the
// base/n table NewFleet built, for every host of every layout.
func TestShardOfMatchesPartition(t *testing.T) {
	for hosts := 1; hosts <= 64; hosts++ {
		_, cl := plainWorld(hosts)
		for shards := 1; shards <= hosts; shards++ {
			pol := DefaultFleetPolicy()
			pol.Shards = shards
			f := NewFleet(cl, NewCountTarget(cl), pol)
			next := 0
			for _, s := range f.shards {
				if s.base != next || s.n < 1 {
					t.Fatalf("%d hosts / %d shards: shard %d covers [%d, %d+%d), want it to start at %d", hosts, shards, s.id, s.base, s.base, s.n, next)
				}
				next += s.n
				for id := s.base; id < next; id++ {
					if got := f.shardOf(id); got != s {
						t.Fatalf("%d hosts / %d shards: shardOf(%d) = shard %d, partition says %d", hosts, shards, id, got.id, s.id)
					}
				}
			}
			if len(f.shards) != shards || next != hosts {
				t.Fatalf("%d hosts / %d shards: %d shards cover %d hosts", hosts, shards, len(f.shards), next)
			}
		}
	}
}
