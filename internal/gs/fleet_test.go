package gs

import (
	"reflect"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// plainWorld builds a fresh kernel and a cluster of n default hosts.
func plainWorld(n int) (*sim.Kernel, *cluster.Cluster) {
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, n)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("h")
	}
	return k, cluster.New(k, netsim.Params{}, specs...)
}

// countWorld builds a fresh kernel + cluster + CountTarget with a seeded
// hotspot skew and pre-scheduled deterministic churn: background-load
// jitter on the run queues and owner arrival/departure storms. Two calls
// with the same arguments build bit-identical worlds, so two schedulers
// over twin worlds see the same history.
func countWorld(hosts, vps int, seed uint64, dur time.Duration) (*sim.Kernel, *cluster.Cluster, *CountTarget) {
	k, cl := plainWorld(hosts)
	tgt := NewCountTarget(cl)
	rng := sim.NewRNG(seed)
	// Hotspot skew: a fifth of the VPs land on one-twentieth of the
	// hosts, the rest spread uniformly.
	hot := hosts / 20
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < vps; i++ {
		if i%5 == 0 {
			tgt.Seed(rng.Intn(hot), 1)
		} else {
			tgt.Seed(rng.Intn(hosts), 1)
		}
	}
	churn(k, cl, rng, dur)
	return k, cl, tgt
}

// churn pre-schedules countWorld's run-queue and owner churn on any
// cluster: every second one host's background load jumps to a seeded level,
// and one second in seven an owner arrives at or leaves a seeded host.
func churn(k *sim.Kernel, cl *cluster.Cluster, rng *sim.RNG, dur time.Duration) {
	hs := cl.Hosts()
	bgs := make([]*cluster.BackgroundLoad, len(hs))
	for i, h := range hs {
		bgs[i] = cluster.NewBackgroundLoad(h)
	}
	for at := time.Second; at < dur; at += time.Second {
		h, n := rng.Intn(len(hs)), rng.Intn(8)
		k.Schedule(at, func() { bgs[h].Set(n) })
		if rng.Intn(7) == 0 {
			oh, active := rng.Intn(len(hs)), rng.Intn(2) == 0
			k.Schedule(at, func() { hs[oh].SetOwnerActive(active) })
		}
	}
}

// TestFleetOneShardMatchesCentralized is the equivalence pin. Until the
// centralized scheduler type was deleted this test ran it beside a one-shard
// run-queue fleet over twin worlds and required the two decision logs to
// be DeepEqual. The reference's answer for this exact world, measured at
// the last commit that had it, is frozen here: the one-shard fleet must
// still give the same decisions (count, split and fingerprint, which
// covers every host, destination, timestamp and error) and schedule the
// same number of kernel events.
func TestFleetOneShardMatchesCentralized(t *testing.T) {
	const (
		hosts = 40
		vps   = 400
		seed  = 0xfeed
		dur   = 4 * time.Minute

		wantDecisions   = 64
		wantEvacuations = 16
		wantMoves       = 48
		wantFingerprint = 0x57b2f37959d90a6c
		wantEvents      = 325
	)
	k, cl, tgt := countWorld(hosts, vps, seed, dur)
	pol := DefaultFleetPolicy()
	pol.Shards = 1
	pol.LoadThreshold = 2
	fleet := NewFleet(cl, tgt, pol)
	fleet.Start()
	k.RunUntil(dur)

	decs := fleet.Decisions()
	evacuations, moves := 0, 0
	for _, d := range decs {
		if d.Dest < 0 {
			evacuations++
		} else {
			moves++
		}
	}
	if len(decs) != wantDecisions || evacuations != wantEvacuations || moves != wantMoves {
		t.Fatalf("decisions = %d (%d evacuations, %d moves), centralized reference made %d (%d, %d)",
			len(decs), evacuations, moves, wantDecisions, wantEvacuations, wantMoves)
	}
	if fp := DecisionFingerprint(decs); fp != wantFingerprint {
		t.Fatalf("decision fingerprint %#x, centralized reference %#x", fp, uint64(wantFingerprint))
	}
	if ev := k.EventsScheduled(); ev != wantEvents {
		t.Fatalf("kernel events scheduled = %d, centralized reference %d", ev, wantEvents)
	}
}

// runFleetOnce builds a multi-shard world and runs it to completion,
// returning the decision log.
func runFleetOnce(t *testing.T, shards int, src LoadSource, place Placement, seed uint64) []Decision {
	t.Helper()
	const (
		hosts = 48
		vps   = 600
	)
	dur := 4 * time.Minute
	k, cl, tgt := countWorld(hosts, vps, seed, dur)
	pol := DefaultFleetPolicy()
	pol.Shards = shards
	pol.LoadThreshold = 2
	pol.Source = src
	pol.Placement = place
	pol.Seed = seed
	fleet := NewFleet(cl, tgt, pol)
	fleet.Start()
	k.RunUntil(dur)
	return fleet.Decisions()
}

// TestFleetMultiShardDeterminism double-runs the sharded scheduler with
// gossip and the randomized dest-swap placement: same seed, same decision
// log, same fingerprint.
func TestFleetMultiShardDeterminism(t *testing.T) {
	a := runFleetOnce(t, 4, SourceWorkUnits, DestSwap{}, 0xabcd)
	b := runFleetOnce(t, 4, SourceWorkUnits, DestSwap{}, 0xabcd)
	if len(a) == 0 {
		t.Fatal("no decisions — scenario too quiet to pin determinism")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("double run diverged: %d vs %d decisions", len(a), len(b))
	}
	if DecisionFingerprint(a) != DecisionFingerprint(b) {
		t.Fatal("double run fingerprints diverged")
	}
	c := runFleetOnce(t, 4, SourceWorkUnits, DestSwap{}, 0xabce)
	if reflect.DeepEqual(a, c) && len(a) > 3 {
		t.Fatal("different seeds produced identical logs — seed is not reaching the fleet")
	}
}

// TestFleetRunQueueShardedDeterminism covers the run-queue source in
// sharded mode (cross-shard moves steered by gossiped MinRunq).
func TestFleetRunQueueShardedDeterminism(t *testing.T) {
	a := runFleetOnce(t, 3, SourceRunQueue, nil, 0x5151)
	b := runFleetOnce(t, 3, SourceRunQueue, nil, 0x5151)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("double run diverged: %d vs %d decisions", len(a), len(b))
	}
}

// TestGossipPeerSelectionDeterministic pins the seeded peer stream: two
// fleets with the same seed draw identical peer sequences, every draw is
// a valid non-self shard, and a different seed draws a different stream.
func TestGossipPeerSelectionDeterministic(t *testing.T) {
	build := func(seed uint64) *Fleet {
		_, cl := plainWorld(12)
		pol := DefaultFleetPolicy()
		pol.Shards = 4
		pol.Seed = seed
		return NewFleet(cl, NewCountTarget(cl), pol)
	}
	f1, f2, f3 := build(7), build(7), build(8)
	var s1, s2, s3 []int
	for draw := 0; draw < 64; draw++ {
		for sh := 0; sh < 4; sh++ {
			p1 := f1.pickPeer(f1.shards[sh])
			p2 := f2.pickPeer(f2.shards[sh])
			p3 := f3.pickPeer(f3.shards[sh])
			if p1 < 0 || p1 >= 4 || p1 == sh {
				t.Fatalf("shard %d drew invalid peer %d", sh, p1)
			}
			s1, s2, s3 = append(s1, p1), append(s2, p2), append(s3, p3)
		}
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed drew different peer streams")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds drew identical peer streams")
	}
}

// TestFleetCrossShardMove forces a shard with no local receiver (every
// other member owner-occupied) and checks gossip steers the move to
// another shard's least-loaded host.
func TestFleetCrossShardMove(t *testing.T) {
	k, cl := plainWorld(8)
	tgt := NewCountTarget(cl)
	// Shard 0 = hosts 0–3, shard 1 = hosts 4–7. Host 0 is overloaded and
	// hosts 1–3 are owner-occupied, so shard 0 has no local receiver.
	tgt.Seed(0, 10)
	for i := 1; i <= 3; i++ {
		cl.Hosts()[i].SetOwnerActive(true)
	}
	pol := DefaultFleetPolicy()
	pol.Shards = 2
	pol.LoadThreshold = 1
	pol.Source = SourceWorkUnits
	pol.GossipPeers = 1 // with 2 shards every round reaches the other shard
	fleet := NewFleet(cl, tgt, pol)
	fleet.Start()
	k.RunUntil(time.Minute)
	moved := false
	for _, d := range fleet.Decisions() {
		if d.Err == nil && d.Host == 0 && d.Dest >= 4 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("no cross-shard move out of host 0; decisions: %+v", fleet.Decisions())
	}
}

// TestFleetOwnerReclaimEvacuates checks the event-driven path: an owner
// arrival drains the host through the target with a Dest:-1 decision.
func TestFleetOwnerReclaimEvacuates(t *testing.T) {
	k, cl := plainWorld(4)
	tgt := NewCountTarget(cl)
	tgt.Seed(1, 6)
	fleet := NewFleet(cl, tgt, DefaultFleetPolicy())
	fleet.Start()
	k.Schedule(10*time.Second, func() { cl.Hosts()[1].SetOwnerActive(true) })
	k.RunUntil(time.Minute)
	dec := fleet.Decisions()
	if len(dec) != 1 || dec[0].Host != 1 || dec[0].Dest != -1 || dec[0].Moved != 6 || dec[0].Err != nil {
		t.Fatalf("decisions = %+v", dec)
	}
	if tgt.HostLoad(1) != 0 {
		t.Fatalf("host 1 still carries %d units after reclaim", tgt.HostLoad(1))
	}
}

// TestFleetSteadyStateTickZeroAlloc pins the steady-state tick: once the
// world is quiet and the load-index level rows and the event heap have
// grown, a full tick — beats, gossip, planning across all shards —
// allocates nothing.
func TestFleetSteadyStateTickZeroAlloc(t *testing.T) {
	k, cl := plainWorld(32)
	tgt := NewCountTarget(cl)
	for i := 0; i < 32; i++ {
		tgt.Seed(i, 3) // balanced: planning runs but never moves
	}
	pol := DefaultFleetPolicy()
	pol.Shards = 4
	pol.LoadThreshold = 2
	fleet := NewFleet(cl, tgt, pol)
	fleet.Start()
	at := 10 * time.Minute
	k.RunUntil(at) // grow the level rows and the event heap
	// AllocsPerRun, not a bare MemStats bracket: Mallocs is process-wide,
	// and a runtime background goroutine allocating once inside a single
	// ten-minute bracket failed this gate about one run in fifteen.
	allocs := testing.AllocsPerRun(10, func() {
		at += time.Minute // twelve ticks
		k.RunUntil(at)
	})
	if allocs != 0 {
		t.Fatalf("a steady-state minute of ticks allocated %.0f times, want 0", allocs)
	}
}

// TestFleetDecisionPathZeroAlloc pins what the balanced tick above never
// reaches: moves and decision-log appends. The fleet is held in perpetual
// imbalance — a refill event restores one hotspot per shard just before
// every tick, so each tick spends its full per-shard move budget forever.
// The warmup grows every buffer (decision-log pages, load-index level
// rows, event heap) past what a measured window needs, so a malloc in the
// window can only come from the decision path itself.
func TestFleetDecisionPathZeroAlloc(t *testing.T) {
	const (
		hosts    = 256
		perHost  = 40
		shards   = 8
		interval = 5 * time.Second
		window   = 200 // ticks per measured run
	)
	k, cl := plainWorld(hosts)
	defer k.Close()
	tgt := NewCountTarget(cl)
	for i := 0; i < hosts; i++ {
		tgt.Seed(i, perHost)
	}
	pol := DefaultFleetPolicy()
	pol.Shards = shards
	pol.LoadThreshold = perHost + 2
	pol.Source = SourceWorkUnits
	pol.MovesPerTick = 8
	fleet := NewFleet(cl, tgt, pol)
	fleet.Start()
	idx := tgt.Index()
	var refill func()
	refill = func() {
		for i := 0; i < hosts; i++ {
			if i%(hosts/shards) == 0 {
				idx.Set(i, perHost*4)
			} else {
				idx.Set(i, perHost)
			}
		}
		k.Schedule(interval, refill)
	}
	refill()
	at := 2 * window * interval
	k.RunUntil(at)
	warm := len(fleet.Decisions())
	if warm == 0 {
		t.Fatal("decision-path warmup produced no decisions")
	}
	allocs := testing.AllocsPerRun(5, func() {
		fleet.ResetDecisions() // keeps the warmed pages
		at += window * interval
		k.RunUntil(at)
	})
	n := 0
	fleet.EachDecision(func(Decision) { n++ })
	if n == 0 || n > warm {
		t.Fatalf("a measured window made %d decisions (warmup %d) — imbalance not steady", n, warm)
	}
	if allocs != 0 {
		t.Fatalf("%d decisions allocated %.0f times, want 0", n, allocs)
	}
}
