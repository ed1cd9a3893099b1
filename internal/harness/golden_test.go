package harness

import (
	"fmt"
	"hash/fnv"
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
