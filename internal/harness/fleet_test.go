package harness

import (
	"reflect"
	"testing"
	"time"

	"pvmigrate/internal/gs"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/sweep"
)

// TestRunFleetStormScenario is the acceptance-scale run: 1,000 hosts ×
// 100,000 work units under an owner-reclaim storm, sharded eight ways.
func TestRunFleetStormScenario(t *testing.T) {
	sc := FleetScenario{Seed: 99}
	out := RunFleet(sc)
	if out.FinalTotal != 100000 {
		t.Fatalf("work units not conserved: %d, want 100000", out.FinalTotal)
	}
	if out.Evacuations == 0 {
		t.Fatal("storm produced no evacuations")
	}
	if out.Moves == 0 {
		t.Fatal("hotspot skew produced no rebalance moves")
	}
	if out.Fingerprint == 0 || out.Events == 0 {
		t.Fatalf("degenerate outcome: %+v", out)
	}
	// Rebalancing must have flattened the seeded hotspot: the initial
	// skew puts ~5x the even share on hot hosts.
	if out.FinalMaxLoad >= 400 {
		t.Fatalf("final max load %d — scheduler did not flatten the hotspot", out.FinalMaxLoad)
	}
	// And the same scenario replays bit-identically.
	if again := RunFleet(sc); again.Fingerprint != out.Fingerprint {
		t.Fatalf("replay fingerprint %#x != %#x", again.Fingerprint, out.Fingerprint)
	}
}

// TestFleetSweepParallelismInvariant pins satellite determinism: a sweep
// of fleet scenarios over seeds produces bit-identical fingerprints
// whether it runs serially or across four host workers.
func TestFleetSweepParallelismInvariant(t *testing.T) {
	run := func(workers int) []uint64 {
		outs := sweep.Map(6, workers, func(i int) *FleetOutcome {
			return RunFleet(FleetScenario{
				Hosts: 200, VPs: 5000, Shards: 4,
				Seed:     0xf00d + uint64(i),
				Duration: 5 * time.Minute,
				Storms:   40,
			})
		})
		fps := make([]uint64, len(outs))
		for i, o := range outs {
			fps[i] = o.Fingerprint
		}
		return fps
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep fingerprints diverge:\n-parallel 1: %#x\n-parallel 4: %#x", serial, parallel)
	}
	uniq := map[uint64]bool{}
	for _, fp := range serial {
		uniq[fp] = true
	}
	if len(uniq) < 2 {
		t.Fatal("all seeds produced the same fingerprint — seed not reaching the run")
	}
}

// TestFleetSeedByHostBitIdentical pins RunFleet's outcome, seed by seed and
// at one and eight shards, to the values recorded when it still seeded one
// unit per Seed call: counting each host's units first and seeding each
// host once must leave every run as it was. (The fingerprints were
// re-folded when the decision fold became a word fold; the event and unit
// counts are the recorded ones.)
func TestFleetSeedByHostBitIdentical(t *testing.T) {
	for _, c := range []struct {
		shards      int
		seed        uint64
		fingerprint uint64
		events      uint64
		unitsMoved  int
	}{
		{1, 1, 0x3dcfae22d5858496, 3121, 134984},
		{1, 2, 0xede07bfaf7f565f9, 3121, 135556},
		{1, 3, 0x5fb3c90ba35a572a, 3121, 135302},
		{1, 4, 0x8271743662ab226d, 3121, 135627},
		{1, 5, 0x5188482c04f25556, 3121, 135803},
		{1, 6, 0xc5ab638040e06dab, 3121, 135699},
		{8, 1, 0x328576abcc21b8b8, 3121, 146671},
		{8, 2, 0x1e1eb2ba4c4f51c4, 3121, 148202},
		{8, 3, 0xee80eaa5f9234745, 3121, 147937},
		{8, 4, 0x1e30e39cfd8a78a3, 3121, 147788},
		{8, 5, 0x8215105d9d9c2851, 3121, 147450},
		{8, 6, 0x17c8a6f5bc588d36, 3121, 148019},
	} {
		out := RunFleet(FleetScenario{Shards: c.shards, Seed: c.seed, Duration: 60 * time.Minute, Storms: 1200})
		if out.Fingerprint != c.fingerprint || out.Events != c.events || out.UnitsMoved != c.unitsMoved {
			t.Errorf("%d shards seed %d: fingerprint %#x events %d units moved %d; want %#x %d %d",
				c.shards, c.seed, out.Fingerprint, out.Events, out.UnitsMoved, c.fingerprint, c.events, c.unitsMoved)
		}
	}
}

// BenchmarkRunFleet times one run of bench's fleet_storm scenario at the
// benchmark's default seed: 1,000 hosts, 100,000 work units, 8 shards,
// 3,400 owner arrivals over 170 simulated minutes.
func BenchmarkRunFleet(b *testing.B) {
	sc := FleetScenario{Seed: 1994, Duration: 170 * time.Minute, Storms: 3400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := RunFleet(sc); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}

// TestFleetStormStreamMatchesUpfront holds RunFleet, which queues only the
// next storm event and lets each queue its successor, to runFleetUpfront,
// which queues every storm before the run: the same scenario must give the
// same outcome field for field. The tie-heavy cases squeeze the storm into
// a few nanoseconds, so hundreds of arrivals share an instant, with each
// owner leaving after StormDwell or, in the last two, a nanosecond later,
// on an instant the arrivals also use.
func TestFleetStormStreamMatchesUpfront(t *testing.T) {
	var cases []FleetScenario
	for _, shards := range []int{1, 8} {
		for seed := uint64(1); seed <= 6; seed++ {
			cases = append(cases, FleetScenario{Hosts: 200, VPs: 5000, Shards: shards, Seed: seed,
				Duration: 20 * time.Minute, Storms: 300})
		}
		cases = append(cases,
			FleetScenario{Hosts: 200, VPs: 5000, Shards: shards, Seed: 11, Duration: 4, Storms: 600},
			FleetScenario{Hosts: 200, VPs: 5000, Shards: shards, Seed: 12, Duration: 4, Storms: 600, StormDwell: 1})
	}
	for _, sc := range cases {
		got, want := RunFleet(sc), runFleetUpfront(sc)
		if *got != *want {
			t.Errorf("%d shards seed %d duration %v: streamed storm %+v, up-front storm %+v",
				sc.Shards, sc.Seed, sc.Duration, *got, *want)
		}
		if got.Evacuations == 0 {
			t.Errorf("%d shards seed %d duration %v: no evacuation", sc.Shards, sc.Seed, sc.Duration)
		}
	}
}

// runFleetUpfront is RunFleet as it was before the storm became a stream:
// every arrival and departure is scheduled before the run starts.
func runFleetUpfront(sc FleetScenario) *FleetOutcome {
	sc = sc.WithDefaults()
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
	rng := sim.NewRNG(sc.Seed)
	hot := max(sc.Hosts/20, 1)
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
	hosts := w.Cluster.Hosts()
	for i := 0; i < sc.Storms; i++ {
		at := sim.Time(1 + rng.Uint64()%uint64(sc.Duration))
		host := hosts[rng.Intn(sc.Hosts)]
		w.K.ScheduleAt(at, func() { host.SetOwnerActive(true) })
		w.K.ScheduleAt(at+sc.StormDwell, func() { host.SetOwnerActive(false) })
	}
	fleet.Start()
	w.K.RunUntil(sc.Duration)
	fleet.Stop()

	out := &FleetOutcome{Fingerprint: fleet.Fingerprint(), Events: w.K.EventsScheduled(), FinalTotal: tgt.Index().Total()}
	fleet.EachDecision(func(d gs.Decision) {
		out.Decisions++
		if d.Dest == -1 {
			out.Evacuations++
		} else if d.Err == nil {
			out.Moves++
		}
		out.UnitsMoved += d.Moved
	})
	out.FinalMinLoad, out.FinalMaxLoad = sc.VPs, 0
	for i := 0; i < sc.Hosts; i++ {
		out.FinalMinLoad = min(out.FinalMinLoad, tgt.HostLoad(i))
		out.FinalMaxLoad = max(out.FinalMaxLoad, tgt.HostLoad(i))
	}
	return out
}
