package gs

import (
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/sim"
)

// trackedWorld is a world TestShardViewTracksTarget runs fleets over:
// seeded run-queue and owner churn, host crashes that recover 27 s later,
// and heartbeat partitions the GS declares dead and that heal as late.
type trackedWorld struct {
	k   *sim.Kernel
	cl  *cluster.Cluster
	tgt Target
	hb  *partitionBeats
	// sync is whether a move lands inside MoveOne, so that applyMove's
	// optimistic update is already the fact when the tick ends.
	sync bool
}

// indexless hides a target's Index: a fleet over it hears no load change
// and re-reads every slot on every beat.
type indexless struct{ Target }

const (
	trackedSeed = 0x71e3
	trackedDur  = 4 * time.Minute
)

// faults schedules, every `every` from 3 s, a crash of one seeded host and
// a partition of another, both healing 27 s later.
func (w *trackedWorld) faults(every time.Duration, crash, revive func(host int)) {
	w.hb = &partitionBeats{k: w.k, cut: map[int]sim.Time{}}
	hosts := len(w.cl.Hosts())
	rng := sim.NewRNG(trackedSeed ^ 0xdead)
	for at := 3 * time.Second; at < trackedDur; at += every {
		c, cut := rng.Intn(hosts), rng.Intn(hosts)
		w.k.Schedule(at, func() { crash(c); w.hb.cut[cut] = w.k.Now() })
		w.k.Schedule(at+27*time.Second, func() { revive(c); delete(w.hb.cut, cut) })
	}
}

// countTracked is the CountTarget world: 48 hosts, 600 units, and 24 procs
// that compute and pause in turns of seeded length on seeded hosts, so run
// queues also move with no other fact changing.
func countTracked(*testing.T) *trackedWorld {
	k, cl, tgt := countWorld(48, 600, trackedSeed, trackedDur)
	w := &trackedWorld{k: k, cl: cl, tgt: tgt, sync: true}
	hs := cl.Hosts()
	rng := sim.NewRNG(trackedSeed ^ 0xc0de)
	for i := 0; i < 24; i++ {
		cpu := hs[rng.Intn(len(hs))].CPU()
		work, pause := cpu.Speed()*(1+9*rng.Float64()), sim.FromSeconds(1+9*rng.Float64())
		k.Spawn("phased", func(p *sim.Proc) {
			for {
				cpu.Compute(p, work)
				if p.Sleep(pause) != nil {
					return
				}
			}
		})
	}
	w.faults(11*time.Second, func(h int) { hs[h].Fail() }, func(h int) { hs[h].Recover() })
	return w
}

// polledTracked is countTracked behind indexless.
func polledTracked(t *testing.T) *trackedWorld {
	w := countTracked(t)
	w.tgt = indexless{w.tgt}
	return w
}

// lateTarget is a CountTarget whose moves land lateBy after MoveOne
// accepts them, as a migration's do: until then the target's load stays
// where it was.
type lateTarget struct {
	*CountTarget
	k *sim.Kernel
}

const lateBy = 7 * time.Second // longer than a poll interval

func (t lateTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	if t.HostLoad(from) == 0 {
		return t.CountTarget.MoveOne(from, to, reason)
	}
	t.k.Schedule(lateBy, func() { _ = t.CountTarget.MoveOne(from, to, reason) })
	return nil
}

// lateTracked is countTracked behind lateTarget.
func lateTracked(t *testing.T) *trackedWorld {
	w := countTracked(t)
	w.tgt, w.sync = lateTarget{w.tgt.(*CountTarget), w.k}, false
	return w
}

// mpvmTracked is an MPVM world: 12 hosts, 36 migratable 6 MB processes
// started on the first four, so a migration lasts seconds and a crash kills
// the processes on the host. Each computes in six phases with a 4 s pause
// after each, so its host's run queue moves with no placement change. Its
// moves land asynchronously.
func mpvmTracked(t *testing.T) *trackedWorld {
	const hosts, vps = 12, 36
	k, cl, sys := setup(t, hosts)
	tgt := NewVPTarget(sys)
	rng := sim.NewRNG(trackedSeed)
	for i := 0; i < vps; i++ {
		host, secs := rng.Intn(hosts/3), 60+rng.Float64()*240
		mt, err := sys.SpawnMigratable(host, "w", 6<<20, func(mt *mpvm.MTask) {
			for phase := 0; phase < 6; phase++ {
				if mt.Compute(mt.Host().Spec().Speed*secs/6) != nil ||
					mt.SleepUntil(mt.Proc().Now()+4*time.Second) != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		tgt.Track(mt.OrigTID())
	}
	churn(k, cl, rng, trackedDur)
	w := &trackedWorld{k: k, cl: cl, tgt: tgt}
	hs, m := cl.Hosts(), sys.Machine()
	w.faults(37*time.Second,
		func(h int) { hs[h].Fail(); _ = m.CrashHost(h) },
		func(h int) { hs[h].Recover(); _, _ = m.ReviveHost(h) })
	return w
}

// TestShardViewTracksTarget pins the shards' tables on the state itself:
// however a slot's facts change, the beat that follows has heard of it. Each
// world runs under owner storms, run-queue churn, crashes, partitions the GS
// declares dead, and rebalancing. Right after every beat each slot's load,
// run queue, donor and receiver eligibility equal the live host (owner,
// availability, dead verdict) and target facts. Where moves land inside MoveOne (a CountTarget) they
// still do at the end of the tick, since applyMove mirrors the move exactly.
// Every remote vector whose epoch is current equals its sender's field for
// field and is a copy of it.
//
// The mpvm rows run a real asynchronous target. There every migration's
// flush reaches every daemon, whose CPU charge marks its host, so a lost
// applyMove mark does not show; the late row is the one it fails, because
// its target's load stays where it was for longer than a poll interval
// while the view holds applyMove's guess. The polled row drives a
// CountTarget through a decorator without Index, so every beat re-reads
// every slot; it must decide exactly as the pushed beat does on a twin
// world. The two-fleet row runs two schedulers over one target, each of
// which must stay exact.
func TestShardViewTracksTarget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    LoadSource
		shards []int // one fleet per entry, all over the world's one target
		world  func(*testing.T) *trackedWorld
	}{
		{"runqueue/1shards", SourceRunQueue, []int{1}, countTracked},
		{"runqueue/8shards", SourceRunQueue, []int{8}, countTracked},
		{"workunits/1shards", SourceWorkUnits, []int{1}, countTracked},
		{"workunits/8shards", SourceWorkUnits, []int{8}, countTracked},
		{"mpvm/runqueue/3shards", SourceRunQueue, []int{3}, mpvmTracked},
		{"mpvm/workunits/3shards", SourceWorkUnits, []int{3}, mpvmTracked},
		{"late/workunits/8shards", SourceWorkUnits, []int{8}, lateTracked},
		{"polled/workunits/8shards", SourceWorkUnits, []int{8}, polledTracked},
		{"twofleets/workunits/8+3shards", SourceWorkUnits, []int{8, 3}, countTracked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleets := trackFleets(t, tc.world(t), tc.src, tc.shards)
			if !strings.HasPrefix(tc.name, "polled/") {
				return
			}
			direct := trackFleets(t, countTracked(t), tc.src, tc.shards)
			if got, want := fleets[0].Fingerprint(), direct[0].Fingerprint(); got != want {
				t.Fatalf("polled beat decided %#x, pushed beat on a twin world %#x", got, want)
			}
		})
	}
}

// trackFleets runs one fleet per entry of shards over w's target to the end
// of the world, holding each to the live facts at every beat, and returns
// them.
func trackFleets(t *testing.T, w *trackedWorld, src LoadSource, shards []int) []*Fleet {
	t.Helper()
	k, hs := w.k, w.cl.Hosts()
	defer k.Close()
	var sawDown, sawDead, sawOwner bool
	sawRemote := make([]bool, len(shards))
	var fleets []*Fleet
	for n, sh := range shards {
		pol := DefaultFleetPolicy()
		pol.Shards = sh
		pol.Source = src
		pol.LoadThreshold = 2
		pol.MovesPerTick = 3
		pol.Seed = trackedSeed + uint64(n)
		pol.HeartbeatInterval = time.Second
		pol.SuspectAfter = 3 * time.Second
		f := NewFleet(w.cl, w.tgt, pol)
		f.SetHeartbeatSource(w.hb)

		checkSlots := func(when string) {
			for _, s := range f.shards {
				for i := 0; i < s.n; i++ {
					id := s.base + i
					alive := hs[id].Alive() && !hs[id].DeclaredDead()
					elig := alive && !hs[id].OwnerActive()
					if s.view.Load(i) != w.tgt.HostLoad(id) || s.runq[i] != hs[id].LoadAverage() ||
						s.donorOK.Has(i) != alive || s.elig.Has(i) != elig {
						t.Fatalf("%v fleet %d %s: host %d view (load %d, runq %d, donor %v, elig %v), live (%d, %d, %v, %v)",
							k.Now(), n, when, id, s.view.Load(i), s.runq[i], s.donorOK.Has(i), s.elig.Has(i),
							w.tgt.HostLoad(id), hs[id].LoadAverage(), alive, elig)
					}
					sawDown = sawDown || !hs[id].Alive()
					sawDead = sawDead || hs[id].DeclaredDead()
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
					sawRemote[n] = true
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
		// own beat is the one checked; tick's finds no slot left to re-read.
		f.tickFn = func() {
			for _, s := range f.shards {
				f.beatShard(s)
			}
			checkSlots("after the beat")
			f.tick()
			if w.sync {
				checkSlots("at the end of the tick")
			}
			checkRemotes()
		}
		fleets = append(fleets, f)
	}
	for _, f := range fleets {
		f.Start()
	}
	k.RunUntil(trackedDur)

	for n, f := range fleets {
		moves := 0
		f.EachDecision(func(d Decision) {
			if d.Dest >= 0 && d.Err == nil {
				moves++
			}
		})
		if !sawDown || !sawDead || !sawOwner || moves == 0 || sawRemote[n] != (shards[n] > 1) {
			t.Fatalf("world too quiet to pin fleet %d's view: crashed %v, declared dead %v, owner %v, %d moves, current remote vector %v",
				n, sawDown, sawDead, sawOwner, moves, sawRemote[n])
		}
	}
	return fleets
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
