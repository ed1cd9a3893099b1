package main

import (
	"fmt"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// fleet_storm: one op is harness.RunFleet on the acceptance fleet — 1,000
// hosts, 100,000 work units, 8 shards — with the storm rate of the
// acceptance scenario (200 owner arrivals in 10 min) sustained for 170 min:
// 3,400 storms. Steady-state evacuation writes to the load index beside
// rebalance reads then outweigh the initial hotspot drain and the fixed
// cluster-build cost. gs.Fleet beat/gossip/plan/actuate, LoadIndex and
// cluster construction do all the work; pvm, mpvm, the wire and serve do
// none, and the kernel dispatches only a few thousand events, so this is
// the control on which a sim-kernel change must show nothing.
//
// The length is chosen, not round. The fleet's decision log grows by
// append, and that growth is most of what the op allocates (the capacities
// it passes through sum to five times the last one: 11 of 13 MB). The
// capacity steps near this size are 28,672 and 36,096 entries, so an op
// whose decision count falls on the other side of a step allocates 17%
// less or 28% more. The count follows the seed (an early owner arrival on a
// hot host replaces 400 single moves by one evacuation): at 1,200 storms in
// an hour it was 25.6 k to 31.9 k and alloc_kb_per_op was bimodal across
// seeds; at 3,400 storms it is 27.1 k to 35.9 k over 150 seeds, 5 of them
// below the lower step and none above the upper. More storms push seeds
// over the upper step instead.

func fleetScenario(seed uint64) harness.FleetScenario {
	return harness.FleetScenario{Seed: seed, Duration: 170 * time.Minute, Storms: 3400}
}

type fleetWorkload struct {
	sc harness.FleetScenario

	// Traced-pass state: the decorators of the op being assembled.
	place  timingPlacement
	target timingTarget
}

func buildFleet(seed uint64) (workload, error) {
	return &fleetWorkload{sc: fleetScenario(seed).WithDefaults()}, nil
}

func checkFleet(sc harness.FleetScenario, out *harness.FleetOutcome) error {
	if out.FinalTotal != sc.VPs {
		return fmt.Errorf("fleet storm lost work units: %d at the end, %d seeded", out.FinalTotal, sc.VPs)
	}
	if out.Decisions == 0 || out.Evacuations == 0 {
		return fmt.Errorf("fleet storm made %d decisions and %d evacuations", out.Decisions, out.Evacuations)
	}
	return nil
}

func fleetFingerprint(out *harness.FleetOutcome) uint64 {
	h := newHash()
	h.u64(out.Fingerprint)
	h.u64(out.Events)
	h.i64(int64(out.Decisions))
	h.i64(int64(out.UnitsMoved))
	return h.sum()
}

func (w *fleetWorkload) op(tr *tracer) (opResult, error) {
	var out *harness.FleetOutcome
	if tr == nil {
		out = harness.RunFleet(w.sc)
	} else {
		out = w.assembled(tr)
	}
	return opResult{simCost: float64(out.UnitsMoved), fingerprint: fleetFingerprint(out), detail: out},
		checkFleet(w.sc, out)
}

// assembled runs the scenario RunFleet runs, built from the same exported
// cluster and gs calls in the same order, so that each stage is a span, the
// event loop can be stepped one scheduler tick at a time, and Placement and
// Target are wrapped. TestFleetParity holds its fingerprint, event count
// and units moved equal to harness.RunFleet's.
func (w *fleetWorkload) assembled(tr *tracer) *harness.FleetOutcome {
	sc := w.sc
	k := sim.NewKernel()

	tr.begin("cluster.build")
	specs := make([]cluster.HostSpec, sc.Hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("host%d", i+1))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	tr.end()

	tr.begin("gs.seed")
	tgt := gs.NewCountTarget(cl)
	rng := sim.NewRNG(sc.Seed)
	hot := sc.Hosts / 20
	if hot < 1 {
		hot = 1
	}
	for i := 0; i < sc.VPs; i++ {
		if i%5 == 0 {
			tgt.Seed(rng.Intn(hot), 1)
		} else {
			tgt.Seed(rng.Intn(sc.Hosts), 1)
		}
	}
	hosts := cl.Hosts()
	span := int64(sc.Duration)
	for i := 0; i < sc.Storms; i++ {
		at := sim.Time(1 + rng.Uint64()%uint64(span))
		h := rng.Intn(sc.Hosts)
		k.ScheduleAt(at, func() { hosts[h].SetOwnerActive(true) })
		k.ScheduleAt(at+sc.StormDwell, func() { hosts[h].SetOwnerActive(false) })
	}
	tr.end()

	tr.begin("gs.newfleet")
	pol := gs.DefaultFleetPolicy()
	pol.Shards = sc.Shards
	pol.PollInterval = sc.PollInterval
	pol.LoadThreshold = sc.LoadThreshold
	pol.Source = gs.SourceWorkUnits
	w.place = timingPlacement{next: gs.PlacementByName(sc.Placement)}
	pol.Placement = &w.place
	pol.MovesPerTick = sc.MovesPerTick
	pol.Seed = sc.Seed
	w.target = timingTarget{next: tgt}
	fleet := gs.NewFleet(cl, &w.target, pol)
	fleet.Start()
	tr.end()

	// One RunUntil per poll interval: the events of one tick period (the
	// fleet tick itself plus the owner arrivals and departures before it).
	tr.begin("gs.run")
	for at := sc.PollInterval; ; at += sc.PollInterval {
		if at > sc.Duration {
			at = sc.Duration
		}
		start := time.Now()
		k.RunUntil(at)
		tr.sample("gs.tick", time.Since(start))
		if at == sc.Duration {
			break
		}
	}
	tr.leaf("gs.placement", w.place.n, w.place.ns)
	tr.leaf("gs.actuate", w.target.n, w.target.ns)
	tr.end()
	fleet.Stop()

	out := &harness.FleetOutcome{
		Fingerprint: gs.DecisionFingerprint(fleet.Decisions()),
		Events:      k.EventsScheduled(),
		FinalTotal:  tgt.Index().Total(),
	}
	for _, d := range fleet.Decisions() {
		out.Decisions++
		if d.Dest == -1 {
			out.Evacuations++
		} else if d.Err == nil {
			out.Moves++
		}
		out.UnitsMoved += d.Moved
	}
	out.FinalMaxLoad = tgt.Index().MaxLoad()
	return out
}

func (w *fleetWorkload) layers(tr *tracer, last opResult, m map[string]float64) {
	ops := float64(tr.ops())
	tot := tr.totals()
	med := func(name string) float64 { return median(tr.perSpan(name)) }
	m["cluster.build_ms"] = med("cluster.build") / 1e6
	m["gs.seed_ms"] = med("gs.seed") / 1e6
	m["gs.newfleet_ms"] = med("gs.newfleet") / 1e6
	ticks := tr.values("gs.tick")
	m["gs.tick_us_p50"] = percentile(ticks, 50) / 1e3
	m["gs.tick_us_p90"] = percentile(ticks, 90) / 1e3
	out, ok := last.detail.(*harness.FleetOutcome)
	if !ok {
		return
	}
	decisions := float64(out.Decisions)
	if run := tot["gs.run"]; run != nil && decisions > 0 {
		m["gs.ns_per_decision"] = run.Busy / ops / decisions
	}
	if p := tot["gs.placement"]; p != nil && decisions > 0 {
		m["gs.placement_us_per_decision"] = p.Busy / 1e3 / ops / decisions
	}
	if a := tot["gs.actuate"]; a != nil && decisions > 0 {
		m["gs.actuate_us_per_decision"] = a.Busy / 1e3 / ops / decisions
	}
	m["gs.decisions_per_op"] = decisions
	m["gs.evacuations_per_op"] = float64(out.Evacuations)
	m["gs.units_moved_per_op"] = float64(out.UnitsMoved)
	m["gs.final_max_load"] = float64(out.FinalMaxLoad)
	m["sim.events_per_op"] = float64(out.Events)
}

// timingPlacement decorates the destination policy.
type timingPlacement struct {
	next gs.Placement
	n    int64
	ns   time.Duration
}

func (p *timingPlacement) Name() string { return p.next.Name() }

func (p *timingPlacement) Pick(v *gs.ShardView, from, fromLoad int, rng *sim.RNG) int {
	start := time.Now()
	slot := p.next.Pick(v, from, fromLoad, rng)
	p.n++
	p.ns += time.Since(start)
	return slot
}

// timingTarget decorates the actuator the fleet drives.
type timingTarget struct {
	next gs.Target
	n    int64
	ns   time.Duration
}

func (t *timingTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	start := time.Now()
	n, err := t.next.EvacuateHost(host, reason)
	t.n++
	t.ns += time.Since(start)
	return n, err
}

func (t *timingTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	start := time.Now()
	err := t.next.MoveOne(from, to, reason)
	t.n++
	t.ns += time.Since(start)
	return err
}

func (t *timingTarget) HostLoad(host int) int { return t.next.HostLoad(host) }
