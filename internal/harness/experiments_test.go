package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestTableRenderersProduceRows(t *testing.T) {
	cases := []struct {
		name    string
		render  func() string
		needles []string
	}{
		{"Table1", func() string { return Table1().String() }, []string{"PVM", "MPVM", "198.00"}},
		{"Table3", func() string { return Table3().String() }, []string{"UPVM", "4.92"}},
		{"Table4", func() string { return Table4().String() }, []string{"6.88", "0.60"}},
	}
	for _, c := range cases {
		out := c.render()
		for _, n := range c.needles {
			if !strings.Contains(out, n) {
				t.Errorf("%s output missing %q:\n%s", c.name, n, out)
			}
		}
		if strings.Contains(out, "failed") {
			t.Errorf("%s reported a failure:\n%s", c.name, out)
		}
	}
}

func TestFigure1TimelineHasAllFourStages(t *testing.T) {
	log, out := TraceMPVMMigration(Scenario{
		TotalBytes: 600_000, Iterations: 6,
		MigrateAt: 2_000_000_000, MigrateTo: 0,
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	stages := strings.Join(log.Stages(), " ")
	for _, want := range []string{
		"1:migration-event", "2:flush", "2:flush-complete",
		"3:skeleton-ready", "3:state-transfer", "3:off-source",
		"4:restart", "4:reintegrated",
	} {
		if !strings.Contains(stages, want) {
			t.Errorf("Figure 1 timeline missing stage %q (have: %s)", want, stages)
		}
	}
	// Stage order is the protocol order.
	events := log.Events()
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("timeline not time-ordered")
		}
	}
}

func TestFigure3TimelineHasAllFourStages(t *testing.T) {
	log, out := TraceUPVMMigration(Scenario{
		TotalBytes: 600_000, Iterations: 6,
		MigrateAt: 2_000_000_000, MigrateTo: 0,
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	stages := strings.Join(log.Stages(), " ")
	for _, want := range []string{
		"1:migration-event", "1:context-captured",
		"2:flush", "2:flush-complete", "3:off-source", "4:enqueued",
	} {
		if !strings.Contains(stages, want) {
			t.Errorf("Figure 3 timeline missing stage %q (have: %s)", want, stages)
		}
	}
}

func TestFigure2LayoutIsValidAndGloballyUnique(t *testing.T) {
	layout, err := Figure2Layout(Scenario{TotalBytes: 600_000, Slaves: 4, Hosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ULP0", "ULP4", "0x40000000"} {
		if !strings.Contains(layout, want) {
			t.Errorf("layout missing %q:\n%s", want, layout)
		}
	}
}

func TestFigure4HasPaperStates(t *testing.T) {
	table := Figure4FSM()
	for _, want := range []string{"compute", "redistribute", "inactive", "migration-event"} {
		if !strings.Contains(table, want) {
			t.Errorf("FSM table missing %q:\n%s", want, table)
		}
	}
}

func TestGranularityFinerULPsBalanceBetter(t *testing.T) {
	// Paper §3.4: "UPVM has the ability to distribute work at a finer
	// granularity. This leads to the ability to achieve better load
	// balance." Quantified: with one host at half speed, 6 ULPs placed 4:2
	// beat 2 processes split 1:1.
	res := GranularityExperiment()
	if res.UPVMFine <= 0 || res.MPVMCoarse <= 0 {
		t.Fatalf("results: %+v", res)
	}
	speedup := float64(res.MPVMCoarse) / float64(res.UPVMFine)
	t.Logf("granularity: MPVM 2 processes %.1f s, UPVM 6 ULPs %.1f s (%.2fx)",
		res.MPVMCoarse.Seconds(), res.UPVMFine.Seconds(), speedup)
	// Ideal is 1.5x (the slow host no longer gates); demand at least 1.25x.
	if speedup < 1.25 {
		t.Fatalf("fine granularity gave only %.2fx", speedup)
	}
	if speedup > 1.6 {
		t.Fatalf("speedup %.2fx exceeds the theoretical 1.5x ceiling", speedup)
	}
}

func TestADMRebalanceImprovesCompletion(t *testing.T) {
	// §3.4.3: ADM can "potentially achieve ideal load balance" — the
	// power-weighted repartition shifts data 2:1 and speeds up the rest of
	// the run.
	load := map[int]int{1: 1}
	static := RunADM(Scenario{TotalBytes: 4_200_000, Iterations: 8, BackgroundLoad: load})
	reb := RunADM(Scenario{TotalBytes: 4_200_000, Iterations: 8, BackgroundLoad: load,
		MigrateAt: 8_000_000_000, MigrateSlave: 1, ADMRebalance: true})
	if static.Err != nil || reb.Err != nil {
		t.Fatalf("errs: %v, %v", static.Err, reb.Err)
	}
	speedup := float64(static.Elapsed) / float64(reb.Elapsed)
	t.Logf("ADM rebalance: static %.1f s, rebalanced %.1f s (%.2fx)",
		static.Elapsed.Seconds(), reb.Elapsed.Seconds(), speedup)
	if speedup < 1.2 {
		t.Fatalf("rebalance speedup only %.2fx", speedup)
	}
	// A rebalance is not a withdrawal: no obtrusiveness record expected,
	// and the run must still finish all iterations.
	if reb.Result.Iterations != 8 {
		t.Fatalf("iterations = %d", reb.Result.Iterations)
	}
}

func TestADMRebalancePreservesTraining(t *testing.T) {
	// Even a mid-iteration power-weighted repartition must not change the
	// results beyond floating-point regrouping: every exemplar still
	// contributes exactly once per iteration, but moving exemplars between
	// slaves legitimately changes the summation grouping (the paper: the
	// reshuffling "affects neither the correctness nor the performance"),
	// so equality is to relative machine precision, not bitwise.
	base := RunADM(Scenario{TotalBytes: 120_000, Iterations: 6, Real: true, Seed: 21})
	reb := RunADM(Scenario{TotalBytes: 120_000, Iterations: 6, Real: true, Seed: 21,
		BackgroundLoad: map[int]int{1: 1},
		MigrateAt:      1_500_000_000, MigrateSlave: 1, ADMRebalance: true})
	if base.Err != nil || reb.Err != nil {
		t.Fatalf("errs: %v, %v", base.Err, reb.Err)
	}
	if len(base.Result.Losses) != len(reb.Result.Losses) {
		t.Fatalf("iterations differ: %v vs %v", base.Result.Losses, reb.Result.Losses)
	}
	for i := range base.Result.Losses {
		a, b := base.Result.Losses[i], reb.Result.Losses[i]
		if d := a - b; d > 1e-9*(1+a) || d < -1e-9*(1+a) {
			t.Fatalf("iter %d: %g vs %g — rebalance corrupted the training", i, a, b)
		}
	}
}

func TestAllTableAndFigureRenderersRun(t *testing.T) {
	// The full migrate-bench surface, as a regression test: every renderer
	// must produce non-empty output and report no failures.
	if testing.Short() {
		t.Skip("slow sweep renderers")
	}
	renderers := map[string]func() string{
		"Table2":     func() string { return Table2().String() },
		"Table4x":    func() string { return Table4Extended().String() },
		"Table5":     func() string { return Table5().String() },
		"Table6":     func() string { return Table6().String() },
		"Figure1":    Figure1,
		"Figure2":    Figure2,
		"Figure3":    Figure3,
		"Figure4":    Figure4,
		"ExtensionE": func() string { return ExtensionADMRebalance().String() },
	}
	for name, render := range renderers {
		out := render()
		if len(out) < 40 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
		if strings.Contains(out, "failed") {
			t.Errorf("%s reported failure:\n%s", name, out)
		}
	}
}

// lastColumns returns, per data row of a rendered table, the trailing n
// cells parsed as numbers.
func lastColumns(t *testing.T, table string, n int) [][]float64 {
	t.Helper()
	if strings.Contains(table, "failed") {
		t.Fatalf("table reported a failure:\n%s", table)
	}
	var rows [][]float64
	lines := strings.Split(table, "\n")
	for _, line := range lines[3:] { // title, headers, separator
		cells := strings.Fields(line)
		if strings.HasPrefix(line, "  ") || len(cells) < n {
			break // footnotes
		}
		row := make([]float64, n)
		for i, c := range cells[len(cells)-n:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows
}

// TestRouteAndChunkExtensionsMatchExperiments pins the two ablations and
// Extension A's eviction policies to the values EXPERIMENTS.md quotes, and
// the ablations to the claims it draws from them.
func TestRouteAndChunkExtensionsMatchExperiments(t *testing.T) {
	policies := lastColumns(t, ExtensionCheckpoint().String(), 5) // obtrusiveness, completion, no eviction, lost work, checkpoints
	if want := [][]float64{
		{3.20, 173.71, 170.43, 0, 0},
		{0, 221.94, 242.06, 1.82, 12},
		{0, 212.52, 208.94, 7.34, 7},
		{0, 227.63, 192.38, 42.46, 4},
	}; fmt.Sprint(policies) != fmt.Sprint(want) {
		t.Errorf("eviction policies = %v, EXPERIMENTS.md says %v", policies, want)
	}

	route := lastColumns(t, ExtensionRoute().String(), 1)
	if want := [][]float64{{8.59}, {8.68}}; fmt.Sprint(route) != fmt.Sprint(want) {
		t.Errorf("route runtimes = %v, EXPERIMENTS.md says %v", route, want)
	} else if daemon, direct := route[0][0], route[1][0]; direct < 0.98*daemon || direct > 1.02*daemon {
		t.Errorf("direct route %.2f s vs daemon route %.2f s: want within 2%%", direct, daemon)
	}

	chunk := lastColumns(t, ExtensionADMChunk().String(), 2) // withdrawal, runtime
	want := [][]float64{{5.05, 273.79}, {5.41, 273.35}, {6.25, 272.66}, {9.61, 270.13}}
	if fmt.Sprint(chunk) != fmt.Sprint(want) {
		t.Fatalf("chunk sweep = %v, EXPERIMENTS.md says %v", chunk, want)
	}
	lo, hi := chunk[0][1], chunk[0][1]
	for i, row := range chunk {
		if i > 0 && row[0] <= chunk[i-1][0] {
			t.Errorf("withdrawal cost not monotone in chunk size: %v", chunk)
		}
		lo, hi = min(lo, row[1]), max(hi, row[1])
	}
	if spread := (hi - lo) / lo; spread > 0.015 {
		t.Errorf("runtime spread across chunk sizes %.2f%%, want ≤ 1.5%%", spread*100)
	}
}

func TestWholeStackDeterminism(t *testing.T) {
	// The full Table 2 pipeline (network, daemons, migration protocol,
	// application) must be bit-for-bit reproducible run to run — the
	// substrate guarantee everything else rests on.
	run := func() string {
		out := RunMPVM(Scenario{
			TotalBytes: 4_200_000, Iterations: 8,
			MigrateAt: migrateAfterDistribution(4_200_000), MigrateTo: 0,
		})
		if out.Err != nil || len(out.Records) != 1 {
			t.Fatalf("run failed: %v / %d records", out.Err, len(out.Records))
		}
		r := out.Records[0]
		return fmt.Sprintf("%d|%d|%d|%d", out.Elapsed, r.Start, r.OffSource, r.Reintegrated)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic stack: %s vs %s", a, b)
	}
}
