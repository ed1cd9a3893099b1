package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"pvmigrate/internal/gs"
	"pvmigrate/internal/trace"
)

// Golden digests: the determinism tests beside these double-run a scenario
// and compare the two runs, which a change that moves both runs the same
// way passes. These pin the value. Regenerate (and say why in the PR) only
// when the schedule is meant to move.
const (
	// Survival: 8 hosts, 15 slaves, 3 seeded crashes in 3–10 s, each host
	// back after 3 s (three host-failure and three host-rejoin decisions).
	// Hash of the GS decision fingerprint, every recovery record and the
	// elapsed time.
	goldenSurvivalDigest = 0xe58dada375104f2b
	// OwnerReclaimScenario: 3 hosts, 3 slaves, owner of host 1 back at 20 s
	// (the examples/owner-reclaim world). Hash of the GS decision
	// fingerprint and every migration record's cost and obtrusiveness.
	goldenOwnerReclaimDigest = 0x2c6459b89b34ce3d
	// ADM through redistribution: the real-mode withdrawal and rebalance runs
	// and the cost-model rebalance below. Hash of every loss's bits, the
	// elapsed time and each withdrawal record's obtrusiveness.
	goldenADMRedistributionDigest = 0x324ead7255381127
)

func TestGoldenSurvivalDigest(t *testing.T) {
	cfg := survivalBase()
	cfg.Crashes = 3
	cfg.CrashFrom = 3 * time.Second
	cfg.CrashTo = 10 * time.Second
	cfg.Outage = 3 * time.Second // short enough that rejoins land mid-run
	out := Survival(cfg)
	if out.Err != nil || !out.Completed {
		t.Fatalf("survival run failed: err=%v completed=%v", out.Err, out.Completed)
	}
	if len(out.Recoveries) != 3 {
		t.Fatalf("recoveries = %d, want 3: the run no longer exercises failure detection", len(out.Recoveries))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d\n", gs.DecisionFingerprint(out.Decisions), int64(out.Elapsed))
	for _, r := range out.Recoveries {
		fmt.Fprintf(h, "%+v\n", r)
	}
	if got := h.Sum64(); got != goldenSurvivalDigest {
		t.Fatalf("survival digest %#x, want %#x (decisions %+v, recoveries %+v, elapsed %v)",
			got, uint64(goldenSurvivalDigest), out.Decisions, out.Recoveries, out.Elapsed)
	}
}

func TestGoldenOwnerReclaimDigest(t *testing.T) {
	out, decisions := OwnerReclaimScenario(
		Scenario{Hosts: 3, Slaves: 3, TotalBytes: 3_000_000, Iterations: 6}, 1, 20*time.Second)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(decisions) == 0 || len(out.Records) == 0 {
		t.Fatalf("no evacuation: decisions %+v, records %+v", decisions, out.Records)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d\n", gs.DecisionFingerprint(decisions), int64(out.Elapsed))
	for _, r := range out.Records {
		fmt.Fprintf(h, "%d>%d cost=%d obtr=%d\n", r.From, r.To, int64(r.Cost()), int64(r.Obtrusiveness()))
	}
	if got := h.Sum64(); got != goldenOwnerReclaimDigest {
		t.Fatalf("owner-reclaim digest %#x, want %#x (decisions %+v, records %+v)",
			got, uint64(goldenOwnerReclaimDigest), decisions, out.Records)
	}
}

// TestGoldenADMRedistribution pins ADM by value through the redistribution
// paths: exemplars withdrawn mid-iteration with their processed flags, and
// repartitioned by power. The tests that compare these runs with quiet ones
// allow a floating-point tolerance (a rebalance regroups the summation);
// this holds the exact numbers.
func TestGoldenADMRedistribution(t *testing.T) {
	h := fnv.New64a()
	for _, sc := range []Scenario{
		{TotalBytes: 150_000, Iterations: 8, Real: true, Seed: 3, MigrateAt: 2 * time.Second},
		{TotalBytes: 120_000, Iterations: 6, Real: true, Seed: 21, BackgroundLoad: map[int]int{1: 1},
			MigrateAt: 1500 * time.Millisecond, MigrateSlave: 1, ADMRebalance: true},
		{TotalBytes: 4_200_000, Iterations: 8, BackgroundLoad: map[int]int{1: 1},
			MigrateAt: 8 * time.Second, MigrateSlave: 1, ADMRebalance: true},
	} {
		out := RunADM(sc)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		fmt.Fprintf(h, "%d|%d|", int64(out.Elapsed), len(out.Records))
		for _, l := range out.Result.Losses {
			fmt.Fprintf(h, "%x,", math.Float64bits(l))
		}
		for _, r := range out.Records {
			fmt.Fprintf(h, "obtr=%d,", int64(r.Obtrusiveness()))
		}
		fmt.Fprintln(h)
	}
	if got := h.Sum64(); got != goldenADMRedistributionDigest {
		t.Fatalf("ADM redistribution digest %#x, want %#x", got, uint64(goldenADMRedistributionDigest))
	}
}

// TestGoldenTraceDigests pins the full (time, actor, stage, detail) protocol
// log of one cold MPVM, one warm MPVM and one UPVM migration, so a refactor
// of the stage code that moves, renames, reorders or retimes any step fails
// here under its own name.
func TestGoldenTraceDigests(t *testing.T) {
	mpvmSc := Scenario{TotalBytes: 4_200_000, Iterations: 10, MigrateAt: 8 * time.Second}
	warmSc := mpvmSc
	warmSc.Warm = true
	upvmSc := Scenario{TotalBytes: 600_000, Iterations: 6, MigrateAt: 2 * time.Second}
	for _, c := range []struct {
		name  string
		trace func(Scenario) (*trace.Log, *Outcome)
		sc    Scenario
		want  uint64
	}{
		{"mpvm-cold", TraceMPVMMigration, mpvmSc, 0x901abe5adf9b64f3},
		{"mpvm-warm", TraceMPVMMigration, warmSc, 0xc5702bc7226a2fbc},
		{"upvm", TraceUPVMMigration, upvmSc, 0xe8e219617c5c25b5},
	} {
		log, out := c.trace(c.sc)
		if out.Err != nil {
			t.Fatalf("%s: %v", c.name, out.Err)
		}
		if len(out.Records) != 1 {
			t.Fatalf("%s: records = %d, want 1", c.name, len(out.Records))
		}
		h := fnv.New64a()
		h.Write([]byte(log.Timeline("x")))
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: trace digest %#x, want %#x\n%s", c.name, got, c.want, log.Timeline("x"))
		}
	}
}

// TestGoldenFleetStormDigest pins fleet outcomes by value — the load
// index, every placement, the sharded and the one-shard scheduler and the
// decision log all sit under these numbers, so a change to any of them that
// claims to be behaviour-preserving has to leave them alone. One digest per
// placement × shard count over four seeds at a test-sized fleet, then the
// benchmark's fleet_storm scenario by its exact counts.
func TestGoldenFleetStormDigest(t *testing.T) {
	digest := func(outs []*FleetOutcome) uint64 {
		h := fnv.New64a()
		for _, o := range outs {
			fmt.Fprintf(h, "%x|%d|%d|%d|%d|%d\n", o.Fingerprint, o.Events,
				o.Decisions, o.UnitsMoved, o.FinalMaxLoad, o.FinalMinLoad)
		}
		return h.Sum64()
	}
	for _, c := range []struct {
		placement string
		shards    int
		want      uint64
	}{
		{"least-loaded", 1, 0xfaf64ac9eadd2995},
		{"least-loaded", 8, 0x9c1e9e4d37679397},
		{"first-fit", 1, 0xa4464d32dfb8dba5},
		{"first-fit", 8, 0xb7f2356be93c9f05},
		{"dest-swap", 1, 0x80ce4909314b0fc3},
		{"dest-swap", 8, 0xb5a4d9612a6109dc},
	} {
		var outs []*FleetOutcome
		for _, seed := range []uint64{1, 99, 1994, 2718} {
			out := RunFleet(FleetScenario{
				Hosts: 200, VPs: 5000, Shards: c.shards, Seed: seed,
				Duration: 5 * time.Minute, Storms: 40, Placement: c.placement,
			})
			if out.FinalTotal != 5000 || out.Evacuations == 0 || out.Moves == 0 {
				t.Fatalf("%s/%d shards seed %d: degenerate run %+v", c.placement, c.shards, seed, out)
			}
			outs = append(outs, out)
		}
		if got := digest(outs); got != c.want {
			t.Errorf("%s/%d shards: digest %#x, want %#x", c.placement, c.shards, got, c.want)
			for _, o := range outs {
				t.Logf("  %+v", *o)
			}
		}
	}

	// bench/fleet.go's scenario at the benchmark's default seed.
	got := *RunFleet(FleetScenario{Seed: 1994, Duration: 170 * time.Minute, Storms: 3400})
	want := FleetOutcome{
		Decisions: 32911, Moves: 29547, Evacuations: 3364, UnitsMoved: 367957,
		Fingerprint: 0x1c70e19577c6809b, Events: 8841,
		FinalTotal: 100000, FinalMaxLoad: 102, FinalMinLoad: 0,
	}
	if got != want {
		t.Errorf("fleet_storm scenario:\n got %+v\nwant %+v", got, want)
	}
}
