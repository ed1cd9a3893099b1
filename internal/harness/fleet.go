package harness

import (
	"slices"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/sim"
)

// FleetScenario describes a fleet-scale scheduling experiment: a large
// cluster whose work units are pure counters (gs.CountTarget), so the
// scheduler's decision path — sharded beats, gossip, placement — runs at
// full scale without simulating a hundred thousand processes.
type FleetScenario struct {
	// Hosts is the workstation count (default 1000).
	Hosts int
	// VPs is the work-unit count, seeded with a hotspot skew: a fifth of
	// them land on one-twentieth of the hosts (default 100000).
	VPs int
	// Shards partitions the hosts (default 8; 1 reproduces the
	// centralized scheduler).
	Shards int
	// Seed drives placement skew, storm timing, and the fleet's gossip
	// and probe streams.
	Seed uint64
	// Duration is the simulated run length (default 10 min).
	Duration sim.Time
	// PollInterval is the fleet tick cadence (5 s); never set, kept because bench/fleet.go reads it.
	PollInterval sim.Time
	// Storms is the number of owner-reclaim events: at seeded times an
	// owner arrives on a seeded host, forcing evacuation, and departs
	// StormDwell later (default Hosts/5).
	Storms int
	// StormDwell is how long each arriving owner stays (30 s); never set, kept because bench/fleet.go reads it.
	StormDwell sim.Time
	// LoadThreshold gates rebalancing (even share + 2); never set, kept because bench/fleet.go reads it.
	LoadThreshold int
	// MovesPerTick is each shard's per-tick actuation budget (64); never set, kept because bench/fleet.go reads it.
	MovesPerTick int
	// Placement names the destination policy: "least-loaded" (default),
	// "first-fit", "dest-swap".
	Placement string
}

// WithDefaults returns the scenario with every zero field resolved — the
// exact configuration RunFleet executes.
func (sc FleetScenario) WithDefaults() FleetScenario {
	if sc.Hosts == 0 {
		sc.Hosts = 1000
	}
	if sc.VPs == 0 {
		sc.VPs = 100000
	}
	if sc.Shards == 0 {
		sc.Shards = 8
	}
	if sc.Duration == 0 {
		sc.Duration = 10 * time.Minute
	}
	if sc.PollInterval == 0 {
		sc.PollInterval = 5 * time.Second
	}
	if sc.Storms == 0 {
		sc.Storms = sc.Hosts / 5
	}
	if sc.StormDwell == 0 {
		sc.StormDwell = 30 * time.Second
	}
	if sc.LoadThreshold == 0 {
		sc.LoadThreshold = sc.VPs/sc.Hosts + 2
	}
	if sc.MovesPerTick == 0 {
		sc.MovesPerTick = 64
	}
	return sc
}

func (sc FleetScenario) validate() error {
	if sc.Duration < 0 { // the storm draws instants in [0, Duration)
		return errs.Newf(CodeBadScenario, "duration must not be negative, got %v", sc.Duration)
	}
	if gs.PlacementByName(sc.Placement) == nil {
		return errs.Newf(CodeBadScenario, "unknown placement %q (want least-loaded, first-fit or dest-swap)", sc.Placement)
	}
	return checkCounts(count{"hosts", sc.Hosts, 1}, count{"shards", sc.Shards, 1},
		count{"vps", sc.VPs, 0}, count{"storms", sc.Storms, 0})
}

// storm is one owner arrival or departure: its reserved place in dispatch
// order, its host, and the index of the storm it belongs to.
type storm struct {
	slot    sim.Slot
	host, i int32
}

// streamStorms queues the first of storms, sorted by place, into its place;
// each one, as it runs, queues the next before it sets its host's owner
// active (arrivals) or not (departures). The stream's earliest remaining
// event is always queued, so the kernel's next event, and with it every
// dispatch, is the one it would be with all of them queued up front.
func streamStorms(k *sim.Kernel, hosts []*cluster.Host, storms []storm, owner bool) {
	if len(storms) == 0 {
		return
	}
	next := 0
	var fire func()
	fire = func() {
		s := storms[next]
		if next++; next < len(storms) {
			k.ScheduleSlot(storms[next].slot, fire)
		}
		hosts[s.host].SetOwnerActive(owner)
	}
	k.ScheduleSlot(storms[0].slot, fire)
}

// FleetOutcome is what a fleet scenario produced.
type FleetOutcome struct {
	// Err is set, and nothing else, when the scenario was refused.
	Err error
	// Decisions is the total decision count (rebalance + evacuation).
	Decisions int
	// Moves is the number of successful one-unit rebalance moves.
	Moves int
	// Evacuations is the number of owner-reclaim drains.
	Evacuations int
	// UnitsMoved is the total work units displaced (moves + drained).
	UnitsMoved int
	// Fingerprint folds the decision log — the determinism pin a sweep
	// compares across seeds and parallelism levels.
	Fingerprint uint64
	// Events is the kernel's scheduled-event count for the whole run.
	Events uint64
	// FinalTotal, FinalMaxLoad and FinalMinLoad summarize the load index
	// at the end: Total must equal VPs (units are conserved).
	FinalTotal   int
	FinalMaxLoad int
	FinalMinLoad int
}

// RunFleet executes a fleet scenario to completion. The run is a pure
// function of the scenario, so sweeps over seeds are bit-reproducible at
// any parallelism.
func RunFleet(sc FleetScenario) *FleetOutcome {
	sc = sc.WithDefaults()
	if err := sc.validate(); err != nil {
		return &FleetOutcome{Err: err}
	}
	pol := gs.DefaultFleetPolicy()
	pol.Shards = sc.Shards
	pol.PollInterval = sc.PollInterval
	pol.LoadThreshold = sc.LoadThreshold
	pol.Source = gs.SourceWorkUnits
	pol.Placement = gs.PlacementByName(sc.Placement)
	pol.MovesPerTick = sc.MovesPerTick
	pol.Seed = sc.Seed
	w := NewWorld(WorldSpec{Hosts: Workstations(sc.Hosts, "host%d", 1), Fleet: &pol})
	defer w.Close()
	tgt, fleet := w.Counts, w.Fleet

	// The fleet exists before the units are seeded and the storm is
	// scheduled: NewFleet schedules no event and marks every slot for the
	// first beat, so the order leaves the run as it was. Each unit's host is
	// one draw, counted per host; then each host is seeded once, so the
	// index notifies once per host, not once per unit.
	rng := sim.NewRNG(sc.Seed)
	hot := sc.Hosts / 20
	if hot < 1 {
		hot = 1
	}
	units := make([]int, sc.Hosts)
	for i := 0; i < sc.VPs; i++ {
		if i%5 == 0 {
			units[rng.Intn(hot)]++
		} else {
			units[rng.Intn(sc.Hosts)]++
		}
	}
	for h, n := range units {
		tgt.Seed(h, n)
	}

	// Owner-reclaim storm: seeded arrivals across the run, each owner
	// departing StormDwell later. Each arrival and departure reserves its
	// place in dispatch order where scheduling it would have drawn its seq
	// and tie-break priority. Sorted by place, the arrivals are one stream
	// and the departures another, and each stream keeps only its next event
	// queued.
	arrivals := make([]storm, sc.Storms)
	leaves := make([]sim.Slot, sc.Storms) // by storm index
	span := int64(sc.Duration)
	for i := range arrivals {
		at := sim.Time(1 + rng.Uint64()%uint64(span))
		h := int32(rng.Intn(sc.Hosts))
		arrivals[i] = storm{w.K.Reserve(at), h, int32(i)}
		leaves[i] = w.K.Reserve(at + sc.StormDwell)
	}
	byPlace := func(a, b storm) int { return a.slot.Compare(b.slot) }
	slices.SortFunc(arrivals, byPlace)
	// Every owner stays the same dwell, so in arrival order the departures
	// are sorted already, but for arrivals that share an instant under a
	// tie-breaker: this sort is close to one pass.
	departures := make([]storm, len(arrivals))
	for j, a := range arrivals {
		departures[j] = storm{leaves[a.i], a.host, a.i}
	}
	slices.SortFunc(departures, byPlace)
	hosts := w.Cluster.Hosts()
	streamStorms(w.K, hosts, arrivals, true)
	streamStorms(w.K, hosts, departures, false)

	fleet.Start()
	w.K.RunUntil(sc.Duration)
	fleet.Stop()

	out := &FleetOutcome{
		Fingerprint: fleet.Fingerprint(),
		Events:      w.K.EventsScheduled(),
		FinalTotal:  tgt.Index().Total(),
	}
	fleet.EachDecision(func(d gs.Decision) {
		out.Decisions++
		if d.Dest == -1 {
			out.Evacuations++
		} else if d.Err == nil {
			out.Moves++
		}
		out.UnitsMoved += d.Moved
	})
	minLoad, maxLoad := int(^uint(0)>>1), 0
	for i := 0; i < sc.Hosts; i++ {
		l := tgt.HostLoad(i)
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
	}
	out.FinalMinLoad, out.FinalMaxLoad = minLoad, maxLoad
	return out
}
