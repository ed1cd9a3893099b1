package gs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// fakeBeats is a canned HeartbeatSource for boundary tests.
type fakeBeats struct{ last map[int]sim.Time }

func (f fakeBeats) LastHeard(host int) (sim.Time, bool) {
	t, ok := f.last[host]
	return t, ok
}

// TestSuspectBoundary pins the tie-break at silent == SuspectAfter: the
// boundary counts as alive in both directions. A host exactly at the
// threshold is not declared dead, and a dead host whose silence shrinks
// back to exactly the threshold rejoins.
func TestSuspectBoundary(t *testing.T) {
	k, cl, sys := setup(t, 2)
	pol := DefaultFleetPolicy()
	pol.SuspectAfter = 10 * time.Second
	sched := NewFleet(cl, NewVPTarget(sys), pol)
	hb := fakeBeats{last: map[int]sim.Time{0: 0, 1: 0}}
	sched.SetHeartbeatSource(hb)

	// Exactly SuspectAfter of silence: still alive.
	k.RunUntil(10 * time.Second)
	sched.watchOnce()
	if len(sched.DeadHosts()) != 0 {
		t.Fatalf("host declared dead at exactly SuspectAfter: %v", sched.DeadHosts())
	}

	// One tick past the boundary: dead.
	k.RunUntil(10*time.Second + time.Nanosecond)
	sched.watchOnce()
	if got := sched.DeadHosts(); len(got) != 2 {
		t.Fatalf("hosts past SuspectAfter not declared dead: %v", got)
	}

	// A beat arrives that puts host 0 back at exactly the boundary: rejoin.
	hb.last[0] = k.Now() - 10*time.Second
	sched.watchOnce()
	if got := sched.DeadHosts(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("host at exactly SuspectAfter did not rejoin: %v", got)
	}
	var rejoins int
	for _, d := range sched.Decisions() {
		if d.Reason == core.ReasonHostRejoin {
			rejoins++
		}
	}
	if rejoins != 1 {
		t.Fatalf("rejoin decisions = %d, want 1", rejoins)
	}
}

// partitionBeats is a HeartbeatSource for hosts that are up but cut off:
// every host's beat is current except those in cut, whose last beat
// arrived at the recorded instant.
type partitionBeats struct {
	k   *sim.Kernel
	cut map[int]sim.Time
}

func (p *partitionBeats) LastHeard(host int) (sim.Time, bool) {
	if t, ok := p.cut[host]; ok {
		return t, true
	}
	return p.k.Now(), true
}

// TestFleetDeclaredDeadHostIsNeitherDonorNorReceiver: a host the GS has
// declared dead is dead to every planning path, even though the machine is
// Alive() (a partition, not a crash). Host 3 is the natural receiver (idle)
// and host 6 the natural donor (most loaded); both fall silent at 6 s, are
// declared dead at 10 s, and heal at 62 s. Between the host-failure and the
// host-rejoin entries of the decision log no rebalancing move may name host
// 3 as destination or host 6 as source; before and after, both are used.
//
// With three shards (hosts 0–2, 3–5, 6–8) host 0's shard has no local
// receiver, so its moves go through planRemote. Each round a shard pushes
// its vector to two peers drawn with repeats, so host 0's shard can miss a
// round and still hold a vector from before the declaration that advertises
// host 3 — the root validation is then the only thing in the way.
func TestFleetDeclaredDeadHostIsNeitherDonorNorReceiver(t *testing.T) {
	const (
		hot      = 0 // stays alive, always has work to shed
		receiver = 3
		donor    = 6
	)
	for _, tc := range []struct {
		name      string
		src       LoadSource
		shards    int
		threshold int
	}{
		{"runqueue/1shard", SourceRunQueue, 1, 2},
		{"runqueue/3shards", SourceRunQueue, 3, 2},
		{"workunits/1shard", SourceWorkUnits, 1, 6},
		{"workunits/3shards", SourceWorkUnits, 3, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, cl := plainWorld(9)
			tgt := NewCountTarget(cl)
			for i, h := range cl.Hosts() {
				units, runq := 5, 2
				switch i {
				case hot:
					units, runq = 60, 6
				case receiver:
					units, runq = 0, 0
				case donor:
					units, runq = 80, 8
				}
				tgt.Seed(i, units)
				cluster.NewBackgroundLoad(h).Set(runq)
			}
			// No receiver beside the hot host: in sharded mode its moves
			// must cross shards.
			cl.Hosts()[1].SetOwnerActive(true)
			cl.Hosts()[2].SetOwnerActive(true)

			pol := DefaultFleetPolicy()
			pol.ReclaimOnOwner = false
			pol.Shards = tc.shards
			pol.Source = tc.src
			pol.LoadThreshold = tc.threshold
			pol.HeartbeatInterval = time.Second
			pol.SuspectAfter = 3 * time.Second
			fleet := NewFleet(cl, tgt, pol)
			hb := &partitionBeats{k: k, cut: map[int]sim.Time{}}
			fleet.SetHeartbeatSource(hb)
			fleet.Start()
			k.Schedule(6*time.Second, func() {
				hb.cut[receiver], hb.cut[donor] = k.Now(), k.Now()
			})
			k.Schedule(62*time.Second, func() { clear(hb.cut) })
			k.RunUntil(2 * time.Minute)

			// phase 0 = before the declaration, 1 = declared dead, 2 = rejoined.
			var phase [9]int
			var toReceiver, fromDonor, fromHot [3]int
			for _, d := range fleet.Decisions() {
				switch d.Reason {
				case core.ReasonHostFailure:
					phase[d.Host] = 1
				case core.ReasonHostRejoin:
					phase[d.Host] = 2
				case core.ReasonHighLoad:
					if d.Err != nil {
						t.Fatalf("move failed: %+v", d)
					}
					if d.Dest == receiver {
						toReceiver[phase[receiver]]++
					}
					if d.Host == donor {
						fromDonor[phase[donor]]++
					}
					if d.Host == hot {
						fromHot[phase[receiver]]++
					}
				}
			}
			if phase[receiver] != 2 || phase[donor] != 2 {
				t.Fatalf("hosts did not go dead and rejoin: phases %v, decisions %+v", phase, fleet.Decisions())
			}
			if !cl.Hosts()[receiver].Alive() || !cl.Hosts()[donor].Alive() {
				t.Fatal("the partitioned hosts must stay Alive(): only the GS's dead set excludes them")
			}
			if toReceiver[1] != 0 || fromDonor[1] != 0 {
				t.Fatalf("declared-dead hosts were planned: %d moves onto host %d, %d moves off host %d",
					toReceiver[1], receiver, fromDonor[1], donor)
			}
			if fromHot[1] == 0 {
				t.Fatal("no move off the hot host while the others were dead: the exclusion is untested")
			}
			if toReceiver[0] == 0 || fromDonor[0] == 0 {
				t.Fatalf("before the declaration host %d received %d and host %d shed %d: they are not the natural picks",
					receiver, toReceiver[0], donor, fromDonor[0])
			}
			if toReceiver[2] == 0 || fromDonor[2] == 0 {
				t.Fatalf("after rejoin host %d received %d and host %d shed %d: not eligible again",
					receiver, toReceiver[2], donor, fromDonor[2])
			}
		})
	}
}

// TestEvacuationSkipsDeclaredDeadHost: an owner reclaim never sends work to
// a host the GS has declared dead. Host 3 is up but cut off (a partition),
// idle and the least loaded, so it looks like the best receiver; it falls
// silent at 2 s and is declared dead at 6 s, and host 0's owner returns at
// 10 s. The MPVM row spreads two processes, the counter row six units, over
// hosts 1 and 2.
func TestEvacuationSkipsDeclaredDeadHost(t *testing.T) {
	const dead = 3
	for _, tc := range []struct {
		name  string
		moved int
		world func(t *testing.T) (*sim.Kernel, *cluster.Cluster, Target, func() string)
	}{
		{"mpvm", 2, func(t *testing.T) (*sim.Kernel, *cluster.Cluster, Target, func() string) {
			k, cl, sys := setup(t, 4)
			tgt := NewVPTarget(sys)
			for _, host := range []int{0, 0, 1, 2} {
				tgt.Track(spawnWorker(t, sys, host, 120).OrigTID())
			}
			var orders []string
			sys.SetTracer(func(actor, stage, detail string) {
				if stage == "1:migration-event" {
					orders = append(orders, detail)
				}
			})
			return k, cl, tgt, func() string {
				if len(orders) != 2 {
					return fmt.Sprintf("orders %q, want both processes ordered off host 0", orders)
				}
				for _, o := range orders {
					if strings.Contains(o, fmt.Sprintf("host%d", dead)) {
						return fmt.Sprintf("orders %q name host %d", orders, dead)
					}
				}
				return ""
			}
		}},
		{"count", 6, func(t *testing.T) (*sim.Kernel, *cluster.Cluster, Target, func() string) {
			k, cl := plainWorld(4)
			tgt := NewCountTarget(cl)
			tgt.Seed(0, 6)
			tgt.Seed(1, 2)
			tgt.Seed(2, 2)
			return k, cl, tgt, func() string {
				if tgt.HostLoad(dead) != 0 || tgt.HostLoad(1) != 5 || tgt.HostLoad(2) != 5 {
					return fmt.Sprintf("loads %d %d %d %d, want 0 5 5 0",
						tgt.HostLoad(0), tgt.HostLoad(1), tgt.HostLoad(2), tgt.HostLoad(3))
				}
				return ""
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, cl, tgt, landed := tc.world(t)
			defer k.Close()
			pol := DefaultFleetPolicy()
			pol.HeartbeatInterval = time.Second
			pol.SuspectAfter = 3 * time.Second
			fleet := NewFleet(cl, tgt, pol)
			hb := &partitionBeats{k: k, cut: map[int]sim.Time{}}
			fleet.SetHeartbeatSource(hb)
			fleet.Start()
			k.Schedule(2*time.Second, func() { hb.cut[dead] = k.Now() })
			k.Schedule(10*time.Second, func() {
				if d := fleet.DeadHosts(); len(d) != 1 || d[0] != dead {
					t.Errorf("dead hosts at the reclaim = %v, want [%d]", d, dead)
				}
				cl.Hosts()[0].SetOwnerActive(true)
			})
			k.RunUntil(20 * time.Second)
			if msg := landed(); msg != "" {
				t.Fatal(msg)
			}
			var reclaims int
			for _, d := range fleet.Decisions() {
				if d.Reason == core.ReasonOwnerReclaim {
					reclaims++
					if d.Host != 0 || d.Moved != tc.moved || d.Err != nil {
						t.Fatalf("reclaim decision %+v", d)
					}
				}
			}
			if reclaims != 1 {
				t.Fatalf("%d reclaim decisions, want 1: %+v", reclaims, fleet.Decisions())
			}
		})
	}
}
