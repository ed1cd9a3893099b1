package harness

import (
	"math"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/metrics"
	"pvmigrate/internal/netsim"
)

// servingRun is one serving job on three MPVM workstations under the
// default GS, run to completion or a ten-minute-past-horizon deadline.
type servingRun struct {
	lj        *LoadJob
	decisions []gs.Decision
	records   []core.MigrationRecord
}

func servingLoad(seed uint64) LoadSpec {
	return LoadSpec{
		Workers: 2,
		Arrivals: ArrivalSpec{
			Rate:    20,
			Horizon: 5 * time.Second,
			Seed:    seed,
		},
	}
}

// runServing starts ls on a fresh world; when ownerAt > 0 the owner of
// ownerHost returns at that instant, so the GS must evacuate it under load.
func runServing(t *testing.T, ls LoadSpec, ownerHost int, ownerAt time.Duration) servingRun {
	t.Helper()
	pol := gs.DefaultFleetPolicy()
	w := NewWorld(WorldSpec{Hosts: Workstations(3, "host%d", 1), System: MPVM, Fleet: &pol})
	defer w.Close()
	lj, err := StartLoadJob(w.MPVM, ls)
	if err != nil {
		t.Fatalf("start serving job: %v", err)
	}
	for _, orig := range lj.WorkerOrigs() {
		w.VPs.Track(orig)
	}
	lj.OnFinish = func(*LoadJob) { w.K.Schedule(2*time.Second, func() { w.K.Stop() }) }
	w.Fleet.Start()
	if ownerAt > 0 {
		w.K.ScheduleAt(ownerAt, func() {
			w.Cluster.Host(netsim.HostID(ownerHost)).SetOwnerActive(true)
		})
	}
	w.K.RunUntil(ls.Arrivals.Horizon + 10*time.Minute)
	if lj.Err != nil {
		t.Fatalf("serving job failed: %v", lj.Err)
	}
	return servingRun{lj: lj, decisions: w.Fleet.Decisions(), records: w.MPVM.Records()}
}

func TestRunServingCompletesSchedule(t *testing.T) {
	lj := runServing(t, servingLoad(1), 0, 0).lj
	if !lj.Done {
		t.Fatal("schedule not fully served")
	}
	if lj.Completed == 0 || lj.Latency.N() != lj.Completed {
		t.Fatalf("completed %d, latency observations %d", lj.Completed, lj.Latency.N())
	}
	if lj.Completed != lj.Requests() {
		t.Fatalf("served %d of %d requests", lj.Completed, lj.Requests())
	}
	if p50 := lj.Latency.Percentile(50); p50 <= 0 {
		t.Fatalf("p50 latency %v must be positive", p50)
	}
}

func TestRunServingIsDeterministic(t *testing.T) {
	a := runServing(t, servingLoad(5), 0, 0).lj
	b := runServing(t, servingLoad(5), 0, 0).lj
	if a.FinishedAt != b.FinishedAt || a.Completed != b.Completed {
		t.Fatalf("reruns diverged: %v/%d vs %v/%d",
			a.FinishedAt, a.Completed, b.FinishedAt, b.Completed)
	}
	av, bv := a.Latency.Values(), b.Latency.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("latency %d diverged: %v vs %v", i, av[i], bv[i])
		}
	}
}

// TestRunServingOwnerReclaim runs the paper's defining event under serving
// load: the owner of a worker host returns mid-run, the GS evacuates the
// workers, and the schedule still completes.
func TestRunServingOwnerReclaim(t *testing.T) {
	run := runServing(t, servingLoad(2), 1, 2*time.Second)
	if !run.lj.Done {
		t.Fatal("schedule not fully served after reclaim")
	}
	if len(run.decisions) == 0 {
		t.Fatal("owner reclaim produced no GS decision")
	}
	found := false
	for _, r := range run.records {
		if r.From == 1 && r.Reason == core.ReasonOwnerReclaim {
			found = true
		}
	}
	if !found {
		t.Fatalf("no owner-reclaim migration off host 1 in %d records", len(run.records))
	}
}

// TestSLOReportMatchesHandChecked pins a serving job's SLO accounting — its
// latency Summary and its Violations count — to a hand-computed fixture
// and to metrics.Series.Percentile itself.
func TestSLOReportMatchesHandChecked(t *testing.T) {
	lat := &metrics.Series{}
	for i := 1; i <= 10; i++ {
		lat.Add(float64(i) / 10) // 0.1, 0.2, ..., 1.0
	}
	rep := lat.Summary()
	if rep.N != 10 {
		t.Fatalf("N = %d", rep.N)
	}
	// numpy-convention p95 of 0.1..1.0: rank 0.95*9 = 8.55 →
	// 0.9 + 0.55*(1.0-0.9) = 0.955.
	if math.Abs(rep.P95-0.955) > 1e-12 {
		t.Fatalf("p95 = %v, want 0.955", rep.P95)
	}
	if math.Abs(rep.P50-0.55) > 1e-12 {
		t.Fatalf("p50 = %v, want 0.55", rep.P50)
	}
	if rep.P95 != lat.Percentile(95) || rep.P99 != lat.Percentile(99) {
		t.Fatal("report percentiles must come from Series.Percentile")
	}
	if rep.Max != 1.0 || math.Abs(rep.Mean-0.55) > 1e-12 {
		t.Fatalf("max/mean = %v/%v", rep.Max, rep.Mean)
	}

	// A served job counts a violation for every reply slower than its SLO.
	// This schedule overloads two workers, so a 3 s objective splits the
	// replies.
	ls := servingLoad(1)
	ls.SLO = 3 * time.Second
	lj := runServing(t, ls, 0, 0).lj
	want := 0
	for _, v := range lj.Latency.Values() {
		if v > ls.SLO.Seconds() {
			want++
		}
	}
	if want == 0 || want == lj.Latency.N() {
		t.Fatalf("a %v objective must split the %d replies, %d over", ls.SLO, lj.Latency.N(), want)
	}
	if lj.Violations != want {
		t.Fatalf("violations = %d, want %d of %d replies over %v",
			lj.Violations, want, lj.Latency.N(), ls.SLO)
	}
}
