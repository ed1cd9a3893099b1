package harness

import (
	"reflect"
	"testing"
	"time"

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
// host once must leave every run as it was.
func TestFleetSeedByHostBitIdentical(t *testing.T) {
	for _, c := range []struct {
		shards      int
		seed        uint64
		fingerprint uint64
		events      uint64
		unitsMoved  int
	}{
		{1, 1, 0x39b6e4f7ddcb77a2, 3121, 134984},
		{1, 2, 0xf0ac64c874c6eac3, 3121, 135556},
		{1, 3, 0xe60debe6c988c2a8, 3121, 135302},
		{1, 4, 0xc2f51feb542d90a1, 3121, 135627},
		{1, 5, 0x968e494c989397ed, 3121, 135803},
		{1, 6, 0xe24bc5966f4ee11f, 3121, 135699},
		{8, 1, 0x34f7e54e360359bc, 3121, 146671},
		{8, 2, 0xf3a62ab3de3d99c4, 3121, 148202},
		{8, 3, 0xf7107c8a8918bdb1, 3121, 147937},
		{8, 4, 0x2be50f4d0dcda856, 3121, 147788},
		{8, 5, 0xbda44859b1d3a45a, 3121, 147450},
		{8, 6, 0x975d20399a2bb19b, 3121, 148019},
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
