package main

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pvmigrate/internal/harness"
	"pvmigrate/internal/sim"
)

// The benchmark assembles scenarios outside the harness in three places;
// these tests keep each assembly from drifting away from the harness run it
// stands for.

// tableRows extracts the data rows of a rendered metrics.Table: the lines
// between the dashed separator and the indented notes, split into fields.
func tableRows(rendered string) [][]string {
	var rows [][]string
	inBody := false
	for _, line := range strings.Split(rendered, "\n") {
		switch {
		case strings.HasPrefix(line, "---"):
			inBody = true
		case !inBody || strings.HasPrefix(line, "  ") || strings.TrimSpace(line) == "":
		default:
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

var numeric = regexp.MustCompile(`^-?[0-9]+\.[0-9]{2}$`)

// wantCells asserts that row holds exactly these measured cells (rendered
// %.2f, as metrics.Table renders floats) at the given columns.
func wantCells(t *testing.T, table string, row []string, cells map[int]float64) {
	t.Helper()
	for col, v := range cells {
		want := fmt.Sprintf("%.2f", v)
		if col >= len(row) || !numeric.MatchString(row[col]) || row[col] != want {
			t.Errorf("%s: row %v column %d: harness rendered %q, the bench's scenario literal gives %s", table, row, col, row[min(col, len(row)-1)], want)
		}
	}
}

// TestPaperParity regenerates the paper's tables through the harness's own
// renderers and through the bench's Scenario literals and compares every
// measured cell.
func TestPaperParity(t *testing.T) {
	w := &paperWorkload{seed: 0}
	harness.SetParallel(1)
	c, err := w.regenerate(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(harness.Table1().String())
	if len(rows) != 2 {
		t.Fatalf("table 1: %d rows", len(rows))
	}
	wantCells(t, "table1", rows[0], map[int]float64{1: c.T1PVM})
	wantCells(t, "table1", rows[1], map[int]float64{1: c.T1MPVM})

	rows = tableRows(harness.Table2().String())
	if len(rows) != len(harness.Table2Sizes) {
		t.Fatalf("table 2: %d rows", len(rows))
	}
	for i, row := range rows {
		wantCells(t, "table2", row, map[int]float64{1: c.T2Raw[i], 2: c.T2Obtr[i], 4: c.T2Cost[i]})
	}

	rows = tableRows(harness.Table3().String())
	if len(rows) != 2 {
		t.Fatalf("table 3: %d rows", len(rows))
	}
	wantCells(t, "table3", rows[0], map[int]float64{1: c.T3PVM})
	wantCells(t, "table3", rows[1], map[int]float64{1: c.T3UPVM})

	rows = tableRows(harness.Table4().String())
	if len(rows) != 1 {
		t.Fatalf("table 4: %d rows", len(rows))
	}
	wantCells(t, "table4", rows[0], map[int]float64{1: c.T4Obtr, 2: c.T4Cost})

	rows = tableRows(harness.Table4Extended().String())
	if len(rows) != len(harness.Table2Sizes) {
		t.Fatalf("table 4x: %d rows", len(rows))
	}
	for i, row := range rows {
		wantCells(t, "table4x", row, map[int]float64{1: c.T4xObtr[i], 2: c.T4xCost[i]})
	}

	rows = tableRows(harness.Table5().String())
	if len(rows) != 2 {
		t.Fatalf("table 5: %d rows", len(rows))
	}
	wantCells(t, "table5", rows[0], map[int]float64{1: c.T5PVM})
	wantCells(t, "table5", rows[1], map[int]float64{1: c.T5ADM})

	rows = tableRows(harness.Table6().String())
	if len(rows) != len(harness.Table2Sizes) {
		t.Fatalf("table 6: %d rows", len(rows))
	}
	for i, row := range rows {
		wantCells(t, "table6", row, map[int]float64{1: c.T6Cost[i]})
	}
	if err := c.check(); err != nil {
		t.Errorf("the harness's own tables fail the bench's bands: %v", err)
	}
}

// TestFleetParity: the traced pass's assembly of the fleet scenario is the
// scenario harness.RunFleet runs. A short storm keeps the test quick; the
// assembly code is the same at any size.
func TestFleetParity(t *testing.T) {
	for _, sc := range []harness.FleetScenario{
		{Seed: 7, Hosts: 200, VPs: 20000, Storms: 80},
		{Seed: 1994, Hosts: 120, VPs: 9000, Shards: 3, Storms: 50, Placement: "dest-swap"},
	} {
		sc = sc.WithDefaults()
		want := harness.RunFleet(sc)
		tr := newTracer()
		tr.beginOp("harness.fleet_storm")
		got := (&fleetWorkload{sc: sc}).assembled(tr)
		tr.endOp(1)
		if got.Fingerprint != want.Fingerprint || got.Events != want.Events || got.UnitsMoved != want.UnitsMoved ||
			got.Decisions != want.Decisions || got.Evacuations != want.Evacuations || got.Moves != want.Moves ||
			got.FinalTotal != want.FinalTotal || got.FinalMaxLoad != want.FinalMaxLoad {
			t.Errorf("seed %d: assembled fleet %+v, harness.RunFleet %+v", sc.Seed, *got, *want)
		}
	}
}

// TestWireParity: wire_migration's modelled cost equals its in-memory
// twin's, record for record.
func TestWireParity(t *testing.T) {
	w0, err := buildWire(1994)
	if err != nil {
		t.Fatal(err)
	}
	w := w0.(*wireWorkload)
	wire, err := w.pass(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := w.pass(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if wire.simCost != mem.simCost || wire.fingerprint != mem.fingerprint {
		t.Errorf("wire pass cost %.6f fingerprint %016x, in-memory twin %.6f %016x",
			wire.simCost, wire.fingerprint, mem.simCost, mem.fingerprint)
	}
	if wire.simCost < 700 || wire.simCost > 770 {
		t.Errorf("sim_cost %.3f virtual s; the 13 legs cost 732.483 when the workload was defined", wire.simCost)
	}
}

// TestCensusParity: each census twin reproduces the harness run it counts
// events for.
func TestCensusParity(t *testing.T) {
	warm := sweepScenario(4_200_000, 8, 0)
	warm.Warm = true
	cases := []struct {
		name    string
		harness func(harness.Scenario) *harness.Outcome
		twin    func(harness.Scenario) (*harness.Outcome, *sim.Kernel)
		sc      harness.Scenario
	}{
		{"pvm quiet", harness.RunPVM, censusPVM, harness.Table3Scenario},
		{"mpvm quiet", harness.RunMPVM, censusMPVM, harness.Table3Scenario},
		{"mpvm cold", harness.RunMPVM, censusMPVM, sweepScenario(4_200_000, 8, 0)},
		{"mpvm warm", harness.RunMPVM, censusMPVM, warm},
		{"upvm quiet", harness.RunUPVM, censusUPVM, harness.Table3Scenario},
		{"upvm table 4", harness.RunUPVM, censusUPVM, table4Scenario(0)},
		{"upvm sweep", harness.RunUPVM, censusUPVM, sweepScenario(4_200_000, 10, 0)},
		{"adm quiet", harness.RunADM, censusADM, harness.Table3Scenario},
		{"adm withdraw", harness.RunADM, censusADM, sweepScenario(600_000, 8, 0)},
	}
	for _, c := range cases {
		want := c.harness(c.sc)
		got, k := c.twin(c.sc)
		if want.Err != nil || got.Err != nil {
			t.Errorf("%s: harness err %v, twin err %v", c.name, want.Err, got.Err)
			continue
		}
		if got.Elapsed != want.Elapsed || !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("%s: twin elapsed %v records %+v, harness elapsed %v records %+v",
				c.name, got.Elapsed, got.Records, want.Elapsed, want.Records)
		}
		if k.EventsScheduled() == 0 {
			t.Errorf("%s: twin's kernel scheduled no events", c.name)
		}
	}
}
