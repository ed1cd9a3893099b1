package gs

import (
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// LoadSource selects what "load" means to the fleet scheduler's
// rebalancing policy.
type LoadSource int

const (
	// SourceRunQueue drives decisions from host run-queue lengths — the
	// paper's 1994 policy. With one shard this is the paper's single GS,
	// to which every load daemon reports.
	SourceRunQueue LoadSource = iota
	// SourceWorkUnits drives decisions from the work-unit load index
	// through the pluggable Placement policy — the fleet-scale mode,
	// where run-queue sampling across thousands of hosts is replaced by
	// index levels.
	SourceWorkUnits
)

// FleetPolicy configures the scheduler.
type FleetPolicy struct {
	// Shards partitions the hosts into contiguous shards (clamped to
	// [1, hosts]). One shard is the paper's centralized GS.
	Shards int
	// PollInterval is the tick cadence (default 5s, the cadence at which
	// 1994 load daemons reported to the GS).
	PollInterval sim.Time
	// LoadThreshold, when > 0, starts the rebalancing ticks: a shard moves
	// work off a member whose load exceeds the threshold while some other
	// host would be left better off.
	LoadThreshold int
	// ReclaimOnOwner evacuates a host the moment its owner returns.
	ReclaimOnOwner bool
	// Source picks the load signal (run queues or work units).
	Source LoadSource
	// Placement picks destinations in SourceWorkUnits mode (default
	// LeastLoaded).
	Placement Placement
	// MovesPerTick is each shard's per-tick actuation budget (default 1,
	// the paper's one move per poll; fleet scenarios raise it so a
	// hotspot drains in bounded ticks).
	MovesPerTick int
	// Seed derives every shard's deterministic peer-selection and
	// placement-probe stream.
	Seed uint64
	// HeartbeatInterval, when > 0 together with SuspectAfter and an
	// installed HeartbeatSource, is the cadence at which the scheduler
	// scans daemon heartbeats (failure.go).
	HeartbeatInterval sim.Time
	// SuspectAfter is the heartbeat silence threshold beyond which a host
	// is declared lost. It must comfortably exceed HeartbeatInterval.
	SuspectAfter sim.Time
}

// DefaultFleetPolicy is the paper's GS: one shard planning over run queues
// every 5 s, evacuating on owner arrival; rebalancing and failure detection
// stay off until LoadThreshold / the heartbeat fields are set.
func DefaultFleetPolicy() FleetPolicy {
	return FleetPolicy{
		Shards:         1,
		PollInterval:   5 * time.Second,
		ReclaimOnOwner: true,
		Source:         SourceRunQueue,
		Placement:      LeastLoaded{},
		MovesPerTick:   1,
	}
}

const (
	// gossipPeers is how many seeded-random peers each shard pushes its load
	// vector to in a gossip round, which a multi-shard fleet runs every tick.
	gossipPeers = 2
	// gossipStaleness bounds how many epochs old a remote load vector may be
	// and still steer a cross-shard move.
	gossipStaleness = 3
)

// loadVector is the bounded-staleness summary a shard gossips to its peers:
// its least-loaded eligible member by the one load signal the fleet plans by
// (Source: run-queue length or work units) and that load, as a global host
// id (-1 when the shard has no eligible receiver). That is what picking a
// remote destination takes without a global scan. epoch is the gossip round
// it was built in; 0 means none received yet.
type loadVector struct {
	epoch   uint64
	minLoad int
	minHost int
}

// fleetShard is one shard's local scheduler state: the members' tables as
// of the last beat (loads, run queues, availability), the slots due for a
// refresh at the next one, the shard's seeded RNG, its own load vector and
// the freshest one received from every other shard.
type fleetShard struct {
	id   int
	base int // first global host id
	n    int // member count; slot s ↔ host base+s

	rng *sim.RNG

	// Member tables, slot-indexed, refreshed by beatShard.
	view    *LoadIndex
	runq    []int
	elig    HostSet // receiver eligibility: the host Receives
	donorOK HostSet // donor eligibility: alive and not declared dead
	pv      ShardView

	// dirty lists the slots Fleet.mark queued since the last beat, each once
	// (capacity n: queueing never allocates).
	dirty []int32

	vec    loadVector
	remote []loadVector // freshest vector per source shard
}

// Fleet is the Global Scheduler: hosts partition into shards, each
// refreshing, once per tick, the members' table slots whose facts changed
// and planning its own moves from an incremental load view; a thin root
// actuates the plans, resolves cross-shard moves steered by gossiped load
// vectors, evacuates hosts whose owner returns and declares heartbeat-silent
// hosts dead. All decisions are a pure function of (cluster history,
// policy, seed).
type Fleet struct {
	cl     *cluster.Cluster
	k      *sim.Kernel
	target Target
	pol    FleetPolicy

	hosts  []*cluster.Host
	shards []*fleetShard
	owner  []*fleetShard // owner[id] is the shard host id belongs to

	// marked[id] is set while host id's slot waits in its shard's dirty
	// list. polled is set when the target announces no load change (it has
	// no Index), so every beat refreshes every slot.
	marked []bool
	polled bool

	log     decisionLog
	stopped bool
	epoch   uint64
	tickFn  func()

	// Failure detection (failure.go); its verdict lives on the hosts.
	hb      HeartbeatSource
	watchFn func()
}

// NewFleet creates a fleet scheduler over the cluster driving target.
func NewFleet(cl *cluster.Cluster, target Target, pol FleetPolicy) *Fleet {
	hosts := cl.Hosts()
	if pol.PollInterval == 0 {
		pol.PollInterval = 5 * time.Second
	}
	if pol.Shards < 1 {
		pol.Shards = 1
	}
	if pol.Shards > len(hosts) {
		pol.Shards = len(hosts)
	}
	if pol.Placement == nil {
		pol.Placement = LeastLoaded{}
	}
	if pol.MovesPerTick < 1 {
		pol.MovesPerTick = 1
	}
	f := &Fleet{cl: cl, k: cl.Kernel(), target: target, pol: pol, hosts: hosts,
		owner: make([]*fleetShard, len(hosts)), marked: make([]bool, len(hosts))}
	f.tickFn = f.tick
	f.watchFn = f.watch
	nsh := pol.Shards
	per, extra := len(hosts)/nsh, len(hosts)%nsh
	base := 0
	for id := 0; id < nsh; id++ {
		n := per
		if id < extra {
			n++
		}
		s := &fleetShard{
			id: id, base: base, n: n,
			rng:     sim.NewRNG(pol.Seed ^ (0x9e3779b97f4a7c15 * uint64(id+1))),
			view:    NewLoadIndex(n),
			runq:    make([]int, n),
			elig:    NewHostSet(n),
			donorOK: NewHostSet(n),
			dirty:   make([]int32, 0, n),
			remote:  make([]loadVector, nsh),
		}
		s.pv = ShardView{Index: s.view, Elig: s.elig}
		f.shards = append(f.shards, s)
		for i := range n {
			f.owner[base+i] = s
		}
		base += n
	}
	// The first beat reads every slot; after it, a slot is re-read only when
	// the cluster (owner, availability, run queue, dead verdict), the
	// target's index or applyMove says it changed.
	for id := range hosts {
		f.mark(id)
	}
	cl.Watch(func(h *cluster.Host, _ cluster.Change) { f.mark(int(h.ID())) })
	if it, ok := target.(interface{ Index() *LoadIndex }); ok {
		it.Index().OnChange(f.mark)
	} else {
		f.polled = true
	}
	return f
}

// Decisions returns the log of actions taken, in order, as one slice. A log
// longer than one page (decisionPage entries) is copied on every call: a
// caller that only walks a long log, or wants its fingerprint, uses
// EachDecision and Fingerprint instead.
func (f *Fleet) Decisions() []Decision { return f.log.flat() }

// EachDecision calls fn on every logged decision in order, without copying
// the log.
func (f *Fleet) EachDecision(fn func(Decision)) { f.log.each(fn) }

// Fingerprint returns DecisionFingerprint(f.Decisions()) without copying the
// log: a running value, extended on each call over the decisions logged
// since the previous one.
func (f *Fleet) Fingerprint() uint64 { return f.log.fingerprint() }

// Stop halts future ticks and reactions.
func (f *Fleet) Stop() { f.stopped = true }

// Start subscribes to owner events, then begins the tick loop (only when
// LoadThreshold is set; owner-reclaim evacuations are event-driven either
// way), then the heartbeat watch (only when HeartbeatInterval, SuspectAfter
// and a HeartbeatSource are all set). The order fixes the kernel sequence
// numbers of the first tick and the first watch, and with them every seeded
// tie-break downstream.
func (f *Fleet) Start() {
	if f.pol.ReclaimOnOwner {
		f.cl.Watch(func(h *cluster.Host, c cluster.Change) {
			if c == cluster.OwnerChanged && h.OwnerActive() && !f.stopped {
				f.evacuate(int(h.ID()), core.ReasonOwnerReclaim)
			}
		})
	}
	if f.pol.LoadThreshold > 0 {
		f.k.Schedule(f.pol.PollInterval, f.tickFn)
	}
	if f.pol.HeartbeatInterval > 0 && f.pol.SuspectAfter > 0 && f.hb != nil {
		f.k.Schedule(f.pol.HeartbeatInterval, f.watchFn)
	}
}

func (f *Fleet) evacuate(host int, reason core.MigrationReason) {
	moved, err := f.target.EvacuateHost(host, reason)
	f.log.add(Decision{
		At: f.k.Now(), Host: host, Dest: -1,
		Reason: reason, Moved: moved, Err: err,
	})
}

// tick is one scheduling round: beat every shard, gossip, then plan and
// actuate up to MovesPerTick moves per shard. Planning (beatShard,
// gossipRound, planShard) is the allocation-free hot path; actuation
// dispatches into the target's migration machinery and is deliberately
// outside it.
func (f *Fleet) tick() {
	if f.stopped {
		return
	}
	for _, s := range f.shards {
		f.beatShard(s)
	}
	if len(f.shards) > 1 {
		f.gossipRound()
	}
	for _, s := range f.shards {
		for m := 0; m < f.pol.MovesPerTick; m++ {
			from, to, ok := f.planShard(s)
			if !ok {
				break
			}
			err := f.target.MoveOne(from, to, core.ReasonHighLoad)
			moved := 1
			if err != nil {
				moved = 0
			}
			f.log.add(Decision{
				At: f.k.Now(), Host: from, Dest: to,
				Reason: core.ReasonHighLoad, Moved: moved, Err: err,
			})
			if err != nil {
				// An actuation failure means the plan's view of the world
				// is wrong; wait for the next beat rather than repeating it.
				break
			}
			f.applyMove(from, to)
		}
	}
	f.k.Schedule(f.pol.PollInterval, f.tickFn)
}

// mark queues host's slot for the next beat of its shard; a slot already
// queued stays queued once.
func (f *Fleet) mark(host int) {
	if f.marked[host] {
		return
	}
	f.marked[host] = true
	s := f.shardOf(host)
	s.dirty = append(s.dirty, int32(host-s.base))
}

// beatShard re-reads the members whose facts changed since the last beat —
// availability, run queue, work-unit load — and writes what it read straight
// into the shard's tables: the shards partition one process's state, so a
// beat is an assignment, not a message. The order of the writes does not
// matter, because every LoadIndex answer breaks ties by lowest id. Against a
// target with no index every member is re-read.
func (f *Fleet) beatShard(s *fleetShard) {
	if f.polled {
		s.dirty = s.dirty[:0]
		for i := 0; i < s.n; i++ {
			s.dirty = append(s.dirty, int32(i))
		}
	}
	for _, slot := range s.dirty {
		i := int(slot)
		id := s.base + i
		f.marked[id] = false
		h := f.hosts[id]
		// A host the GS has declared dead is dead to planning even if the
		// machine itself is up (a partition): no donor, no receiver, not
		// gossiped as anyone's minHost.
		s.donorOK.Put(i, h.Alive() && !h.DeclaredDead())
		s.elig.Put(i, h.Receives())
		s.runq[i] = h.LoadAverage()
		s.view.Set(i, f.target.HostLoad(id))
	}
	s.dirty = s.dirty[:0]
}

// gossipRound advances the gossip epoch: every shard summarizes its view
// into a load vector and copies it into the remote tables of gossipPeers
// seeded peers. Peer choice is a pure function of the shard's seed, so a
// sweep replays bit-identically.
func (f *Fleet) gossipRound() {
	f.epoch++
	for _, s := range f.shards {
		f.buildVector(s)
		for j := 0; j < gossipPeers; j++ {
			f.shards[f.pickPeer(s)].remote[s.id] = s.vec
		}
	}
}

// pickPeer draws a peer shard id uniformly from the other shards.
// Repeats across a round's draws are allowed — gossip redundancy, not a
// correctness issue.
func (f *Fleet) pickPeer(s *fleetShard) int {
	p := int(s.rng.Uint64() % uint64(len(f.shards)-1))
	if p >= s.id {
		p++
	}
	return p
}

// buildVector summarizes the shard's applied view into its load vector: the
// least-loaded eligible member by the signal planRemote compares.
func (f *Fleet) buildVector(s *fleetShard) {
	v := &s.vec
	v.epoch = f.epoch
	slot, load := -1, 0
	if f.pol.Source == SourceRunQueue {
		for i := 0; i < s.n; i++ {
			if s.elig.Has(i) && (slot < 0 || s.runq[i] < load) {
				slot, load = i, s.runq[i]
			}
		}
	} else {
		slot, load = s.view.BestEligible(s.elig)
	}
	if slot >= 0 {
		v.minLoad, v.minHost = load, s.base+slot
	} else {
		v.minLoad, v.minHost = 0, -1
	}
}

// planShard picks at most one move for the shard: donor and destination
// host ids, destination first local (this shard's members), else remote
// via the freshest gossiped load vectors. Pure planning — the caller
// actuates — and allocation-free: this is the steady-state tick path.
func (f *Fleet) planShard(s *fleetShard) (from, to int, ok bool) {
	if f.pol.Source == SourceRunQueue {
		return f.planRunQueue(s)
	}
	return f.planWorkUnits(s)
}

// planRunQueue applies the paper's load-threshold policy over the shard's
// members: donor = highest run queue with work to shed, receiver = lowest
// run queue without its owner, strict inequalities so the lowest host id
// wins ties. Lost hosts neither shed nor receive load.
func (f *Fleet) planRunQueue(s *fleetShard) (int, int, bool) {
	worst, worstLoad := -1, 0
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := 0; i < s.n; i++ {
		if !s.donorOK.Has(i) {
			continue
		}
		runq := s.runq[i]
		if runq > worstLoad && s.view.Load(i) > 0 {
			worst, worstLoad = i, runq
		}
		if runq < bestLoad && s.elig.Has(i) {
			best, bestLoad = i, runq
		}
	}
	if worst < 0 || worstLoad <= f.pol.LoadThreshold {
		return 0, 0, false
	}
	if best >= 0 && best != worst && bestLoad < worstLoad-1 {
		return s.base + worst, s.base + best, true
	}
	// No local receiver improves the imbalance: look for a remote one in
	// the gossiped vectors.
	return f.planRemote(s, s.base+worst, worstLoad)
}

// planWorkUnits selects from the work-unit index through the placement
// policy.
func (f *Fleet) planWorkUnits(s *fleetShard) (int, int, bool) {
	// The exact maximum rules out every donor without looking for one: this
	// is what a quiet tick pays.
	if s.view.MaxLoad() <= f.pol.LoadThreshold {
		return 0, 0, false
	}
	donor, donorLoad := s.view.WorstEligible(s.donorOK)
	if donor < 0 || donorLoad <= f.pol.LoadThreshold {
		return 0, 0, false
	}
	dest := f.pol.Placement.Pick(&s.pv, donor, donorLoad, s.rng)
	if dest >= 0 {
		return s.base + donor, s.base + dest, true
	}
	return f.planRemote(s, s.base+donor, donorLoad)
}

// planRemote scans the shard's received load vectors for the best
// cross-shard destination within the staleness bound; the root validates
// liveness against the live cluster before the move is actuated.
func (f *Fleet) planRemote(s *fleetShard, from, fromLoad int) (int, int, bool) {
	bestHost, bestLoad := -1, 0
	for i := range s.remote {
		v := &s.remote[i]
		if v.epoch == 0 || f.epoch-v.epoch > gossipStaleness {
			continue
		}
		host, load := v.minHost, v.minLoad
		if host < 0 || !improves(fromLoad, load) {
			continue
		}
		if bestHost < 0 || load < bestLoad || (load == bestLoad && host < bestHost) {
			bestHost, bestLoad = host, load
		}
	}
	if bestHost < 0 {
		return 0, 0, false
	}
	// Root validation: the vector is bounded-stale; the move is not.
	if !f.hosts[bestHost].Receives() {
		return 0, 0, false
	}
	return from, bestHost, true
}

// applyMove optimistically updates the involved shard views so the plans
// still to come this tick do not re-plan against state this one changed,
// and marks both slots: the next beat re-reads them, which reconciles the
// guess with a target whose moves land later.
func (f *Fleet) applyMove(from, to int) {
	fs := f.shardOf(from)
	ts := f.shardOf(to)
	fs.view.NoteExit(from - fs.base)
	ts.view.NoteSpawn(to - ts.base)
	f.mark(from)
	f.mark(to)
}

// shardOf returns the shard owning host.
func (f *Fleet) shardOf(host int) *fleetShard { return f.owner[host] }
