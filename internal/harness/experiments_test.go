package harness

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pvmigrate/internal/metrics"
)

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
	table := Figure4()
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
	rows := lastColumns(t, ExtensionGranularity().String(), 1) // MPVM 2 processes, UPVM 6 ULPs
	if len(rows) != 2 {
		t.Fatalf("runtimes = %v, want 2 rows", rows)
	}
	speedup := rows[0][0] / rows[1][0]
	t.Logf("granularity: MPVM 2 processes %.2f s, UPVM 6 ULPs %.2f s (%.2fx)", rows[0][0], rows[1][0], speedup)
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

// TestRouteAndChunkExtensionsMatchExperiments holds the two ablations to
// the claims EXPERIMENTS.md draws from them; TestExperimentsMatchMigrateBench
// pins their rows.
func TestRouteAndChunkExtensionsMatchExperiments(t *testing.T) {
	route := lastColumns(t, ExtensionRoute().String(), 1)
	if len(route) != 2 {
		t.Fatalf("route runtimes = %v, want 2 rows", route)
	}
	if daemon, direct := route[0][0], route[1][0]; direct < 0.98*daemon || direct > 1.02*daemon {
		t.Errorf("direct route %.2f s vs daemon route %.2f s: want within 2%%", direct, daemon)
	}

	chunk := lastColumns(t, ExtensionADMChunk().String(), 2) // withdrawal, runtime
	if len(chunk) != 4 {
		t.Fatalf("chunk sweep = %v, want 4 rows", chunk)
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
		out := RunMPVM(sweepScenario(4_200_000, 8))
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

// A paperBand is the band a table's cells whose names start with prefix
// must land in: [lo, hi], or |measured − p| ≤ rel×p + abs around the
// paper's number p.
type paperBand struct {
	prefix           string
	lo, hi, rel, abs float64
}

// paperTable runs one of Tables 1–6 from its declaration, requires no
// failed run and wantCells cells, holds every cell to README's fidelity
// claim (within 25 % of the paper) and each band's cells to the band, and
// returns the measurements by cell name for the table's relations. The
// exact values are EXPERIMENTS.md's (TestExperimentsMatchMigrateBench).
func paperTable(t *testing.T, table func() (*metrics.Table, []paperCell), wantCells int, bands ...paperBand) map[string]float64 {
	t.Helper()
	rendered, cells := table()
	if s := rendered.String(); strings.Contains(s, "failed") {
		t.Fatalf("a run failed:\n%s", s)
	}
	if len(cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(cells), wantCells)
	}
	measured := map[string]float64{}
	hits := make([]int, len(bands))
	for _, c := range cells {
		measured[c.name] = c.measured
		if d := metrics.DeltaPct(c.measured, c.paper); math.Abs(d) > 25 {
			t.Errorf("%s = %.2f s is %+.1f%% off the paper's %.2f s; README claims within ~25%% everywhere", c.name, c.measured, d, c.paper)
		}
		for i, b := range bands {
			if !strings.HasPrefix(c.name, b.prefix) {
				continue
			}
			hits[i]++
			lo, hi := b.lo, b.hi
			if b.rel != 0 {
				lo, hi = c.paper-b.rel*c.paper-b.abs, c.paper+b.rel*c.paper+b.abs
			}
			t.Logf("%-20s %8.3f s in [%.2f, %.2f], paper %.2f", c.name, c.measured, lo, hi, c.paper)
			if c.measured < lo || c.measured > hi {
				t.Errorf("%s = %.3f s outside [%.2f, %.2f] around the paper's %.2f s", c.name, c.measured, lo, hi, c.paper)
			}
		}
	}
	for i, b := range bands {
		if hits[i] == 0 {
			t.Errorf("no cell named %q", b.prefix)
		}
	}
	return measured
}

// sizeSuffix is the suffix sizeCell gives a sweep cell at totalBytes.
func sizeSuffix(totalBytes int) string { return fmt.Sprintf(" %.1f MB", float64(totalBytes)/1e6) }

func TestTable1_PVMvsMPVMQuietCase(t *testing.T) {
	m := paperTable(t, table1, 2, paperBand{"Table 1 PVM", 170, 220, 0, 0})
	if p, mp := m["Table 1 PVM"], m["Table 1 MPVM"]; math.Abs(mp-p)/p > 0.02 {
		t.Errorf("Table 1: MPVM %.2f s vs PVM %.2f s: overhead over 2%%, paper ~0%%", mp, p)
	}
}

func TestTable2_MPVMMigrationSweep(t *testing.T) {
	m := paperTable(t, table2, 3*len(Table2Sizes),
		paperBand{"Table 2 raw", 0, 0, 0.15, 0.05},
		paperBand{"Table 2 obtr", 0, 0, 0.25, 0.3},
		paperBand{"Table 2 migr", 0, 0, 0.25, 0.4})
	for _, total := range Table2Sizes {
		mb := sizeSuffix(total)
		if obtr, cost := m["Table 2 obtr"+mb], m["Table 2 migr"+mb]; cost <= obtr {
			t.Errorf("Table 2%s: MPVM cost %.2f s ≤ obtrusiveness %.2f s", mb, cost, obtr)
		}
	}
}

func TestTable3_PVMvsUPVMQuietCase(t *testing.T) {
	m := paperTable(t, table3, 2, paperBand{"Table 3 PVM", 4.2, 5.6, 0, 0})
	if p, u := m["Table 3 PVM"], m["Table 3 UPVM"]; u >= p || (p-u)/p > 0.15 {
		t.Errorf("Table 3: UPVM %.2f s vs PVM %.2f s: want UPVM ahead by at most 15%% (paper ~3%%)", u, p)
	}
}

func TestTable4_UPVMMigration(t *testing.T) {
	paperTable(t, table4, 2,
		paperBand{"Table 4 obtr", 1.1, 2.3, 0, 0},
		paperBand{"Table 4 migr", 5.5, 8.5, 0, 0})
}

func TestTable5_ADMOverhead(t *testing.T) {
	m := paperTable(t, table5, 2)
	if r := m["Table 5 ADMopt"] / m["Table 5 PVM_opt"]; r < 1.15 || r > 1.33 {
		t.Errorf("Table 5: ADM/PVM ratio %.2f outside [1.15, 1.33], paper 1.23", r)
	}
}

func TestTable6_ADMMigrationSweep(t *testing.T) {
	m := paperTable(t, table6, 2*len(Table2Sizes), paperBand{"Table 6 migr", 0, 0, 0.35, 0.5})
	for _, total := range Table2Sizes {
		mb := sizeSuffix(total)
		if obtr, cost := m["Table 6 obtr"+mb], m["Table 6 migr"+mb]; obtr != cost {
			t.Errorf("Table 6%s: ADM obtrusiveness %.3f s ≠ cost %.3f s", mb, obtr, cost)
		}
	}
}

// TestTableRenderersProduceRows requires each of Tables 1–6 to print every
// cell it compares, the measurement beside the paper's number on one row.
func TestTableRenderersProduceRows(t *testing.T) {
	for _, table := range []func() (*metrics.Table, []paperCell){table1, table2, table3, table4, table5, table6} {
		rendered, cells := table()
		out := rendered.String()
		title, _, _ := strings.Cut(out, "\n")
		if len(cells) == 0 || strings.Contains(out, "failed") {
			t.Errorf("%q reported a failure:\n%s", title, out)
		}
	cell:
		for _, c := range cells {
			m, p := fmt.Sprintf("%.2f", c.measured), fmt.Sprintf("%.2f", c.paper)
			for _, row := range strings.Split(out, "\n")[3:] { // title, headers, separator
				if fields := strings.Fields(row); slices.Contains(fields, m) && slices.Contains(fields, p) {
					continue cell
				}
			}
			t.Errorf("%q has no row showing %s = %s beside the paper's %s:\n%s", title, c.name, m, p, out)
		}
	}
}

// renderSections renders every section in order with the given worker
// count (0: the default) and restores the setting.
func renderSections(workers int) []string {
	defer SetParallel(parallelism)
	SetParallel(workers)
	outs := make([]string, len(Sections))
	for i, s := range Sections {
		outs[i] = s.Render()
	}
	return outs
}

// TestAllTableAndFigureRenderersRun renders every section of migrate-bench
// serially and at the default parallelism and requires the same bytes and
// no failed run.
func TestAllTableAndFigureRenderersRun(t *testing.T) {
	serial, parallel := renderSections(1), renderSections(0)
	for i, s := range Sections {
		name, out := s.Kind+" "+s.ID, serial[i]
		if out != parallel[i] {
			t.Errorf("%s renders differently in parallel:%s", name, diffLines(out, parallel[i]))
		}
		if strings.Contains(out, "failed") || !strings.HasSuffix(out, "\n") {
			t.Errorf("%s reported a failure:\n%s", name, out)
		}
	}
}

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's blocks from the sections' output")

// TestExperimentsMatchMigrateBench diffs every section's output against
// the fenced block of EXPERIMENTS.md that starts with the section's title:
// the document is migrate-bench's checked output.
// go test -run TestExperimentsMatchMigrateBench -update ./internal/harness
// rewrites the blocks.
func TestExperimentsMatchMigrateBench(t *testing.T) {
	serial := renderSections(1)

	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byTitle := map[string]string{}
	for _, out := range serial {
		title, _, _ := strings.Cut(out, "\n")
		byTitle[title] = out
	}
	blocks, rewritten := fencedBlocks(string(doc), byTitle)
	if *update {
		if err := os.WriteFile(path, []byte(rewritten), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, s := range Sections {
		name, out := s.Kind+" "+s.ID, serial[i]
		title, _, _ := strings.Cut(out, "\n")
		if block, ok := blocks[title]; !ok {
			t.Errorf("EXPERIMENTS.md has no fenced block for %s starting %q", name, title)
		} else if block != out {
			t.Errorf("EXPERIMENTS.md's %s block is stale (-update rewrites it):%s", name, diffLines(out, block))
		}
	}
}

// fencedBlocks returns the body of every fenced block in doc by its first
// line, and doc with each body whose first line is a key of fresh replaced
// by that key's value.
func fencedBlocks(doc string, fresh map[string]string) (map[string]string, string) {
	blocks := map[string]string{}
	var b strings.Builder
	lines := strings.SplitAfter(doc, "\n")
	for i := 0; i < len(lines); i++ {
		b.WriteString(lines[i])
		if !strings.HasPrefix(lines[i], "```") {
			continue
		}
		end := i + 1
		for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
			end++
		}
		body := strings.Join(lines[i+1:end], "")
		title, _, _ := strings.Cut(body, "\n")
		blocks[title] = body
		if out, ok := fresh[title]; ok {
			body = out
		}
		b.WriteString(body)
		if end < len(lines) {
			b.WriteString(lines[end])
		}
		i = end
	}
	return blocks, b.String()
}

// diffLines lists the lines where have differs from want.
func diffLines(want, have string) string {
	w, h := strings.Split(want, "\n"), strings.Split(have, "\n")
	var b strings.Builder
	for i := range max(len(w), len(h)) {
		wl, hl := "", ""
		if i < len(w) {
			wl = w[i]
		}
		if i < len(h) {
			hl = h[i]
		}
		if wl != hl {
			fmt.Fprintf(&b, "\n  line %d\n    want %q\n    have %q", i+1, wl, hl)
		}
	}
	return b.String()
}
