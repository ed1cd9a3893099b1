package main

import (
	"fmt"
	"math"
	"time"

	"pvmigrate/internal/harness"
	"pvmigrate/internal/sim"
)

// paper_tables: one op is one serial regeneration of the paper's whole
// evaluation — every scenario run behind Tables 1, 2, 3, 4, 4x, 5 and 6,
// on the in-memory network. The Scenario literals are those of
// internal/harness/experiments.go; TestPaperParity keeps them equal to
// harness.Table1..6 cell for cell. It is the run a reader of the paper
// makes (cmd/migrate-bench), and ADM with its chunked inner loop does about
// nine tenths of the host work.

// migrateAfterDistribution mirrors the harness helper of the same name: a
// migration instant safely past the initial shard distribution.
func migrateAfterDistribution(totalBytes int) sim.Time {
	return sim.FromSeconds(3 + float64(totalBytes/2)/1.0e6)
}

// sweepScenario is the Table 2 / 4x / 6 scenario at one training-set size.
func sweepScenario(total, iterations int, seed uint64) harness.Scenario {
	return harness.Scenario{
		TotalBytes: total,
		Iterations: iterations,
		MigrateAt:  migrateAfterDistribution(total),
		MigrateTo:  0,
		Seed:       seed,
	}
}

// table4Scenario is the single UPVM migration of Table 4.
func table4Scenario(seed uint64) harness.Scenario {
	return harness.Scenario{TotalBytes: 600_000, Iterations: 6, MigrateAt: 2 * time.Second, MigrateTo: 0, Seed: seed}
}

// paperCells holds every measured cell of one regeneration, in virtual
// seconds, indexed like harness.Table2Sizes where a table sweeps sizes.
type paperCells struct {
	T1PVM, T1MPVM    float64
	T2Raw, T2Obtr    [6]float64
	T2Cost           [6]float64
	T3PVM, T3UPVM    float64
	T4Obtr, T4Cost   float64
	T4xObtr, T4xCost [6]float64
	T5PVM, T5ADM     float64
	T6Cost           [6]float64
	Records          int
	SimCost          float64 // Σ Cost() over the pass's migration records
}

type paperWorkload struct {
	seed uint64
}

func buildPaper(seed uint64) (workload, error) {
	harness.SetParallel(1)
	return &paperWorkload{seed: seed}, nil
}

// run executes one scenario inside a span named after the system, records
// its outcome's error and returns the outcome.
func (w *paperWorkload) run(tr *tracer, name string, fn func(harness.Scenario) *harness.Outcome,
	sc harness.Scenario, wantRecords int, firstErr *error) *harness.Outcome {
	tr.begin(name)
	out := fn(sc)
	tr.end()
	if *firstErr == nil {
		switch {
		case out.Err != nil:
			*firstErr = fmt.Errorf("%s: %w", name, out.Err)
		case len(out.Records) != wantRecords:
			*firstErr = fmt.Errorf("%s: %d migration records, want %d", name, len(out.Records), wantRecords)
		}
	}
	return out
}

// regenerate runs the whole evaluation once.
func (w *paperWorkload) regenerate(tr *tracer) (*paperCells, error) {
	c := &paperCells{}
	var err error
	t1 := harness.Table1Scenario
	t1.Seed = w.seed
	t3 := harness.Table3Scenario
	t3.Seed = w.seed
	secs := func(o *harness.Outcome) float64 { return o.Elapsed.Seconds() }
	record := func(o *harness.Outcome) (obtr, cost float64) {
		if len(o.Records) != 1 {
			return 0, 0
		}
		r := o.Records[0]
		c.Records++
		c.SimCost += r.Cost().Seconds()
		return r.Obtrusiveness().Seconds(), r.Cost().Seconds()
	}

	tr.begin("harness.table1")
	c.T1PVM = secs(w.run(tr, "pvm.quiet_run", harness.RunPVM, t1, 0, &err))
	c.T1MPVM = secs(w.run(tr, "mpvm.quiet_run", harness.RunMPVM, t1, 0, &err))
	tr.end()

	tr.begin("harness.table2")
	for i, total := range harness.Table2Sizes {
		tr.begin("netsim.raw_tcp")
		c.T2Raw[i] = harness.RawTCP(total / 2).Seconds()
		tr.end()
		out := w.run(tr, "mpvm.cold_run", harness.RunMPVM, sweepScenario(total, 8, w.seed), 1, &err)
		c.T2Obtr[i], c.T2Cost[i] = record(out)
	}
	tr.end()

	tr.begin("harness.table3")
	c.T3PVM = secs(w.run(tr, "pvm.quiet_run", harness.RunPVM, t3, 0, &err))
	c.T3UPVM = secs(w.run(tr, "upvm.quiet_run", harness.RunUPVM, t3, 0, &err))
	tr.end()

	tr.begin("harness.table4")
	c.T4Obtr, c.T4Cost = record(w.run(tr, "upvm.migrate_run", harness.RunUPVM, table4Scenario(w.seed), 1, &err))
	tr.end()

	tr.begin("harness.table4x")
	for i, total := range harness.Table2Sizes {
		out := w.run(tr, "upvm.migrate_run", harness.RunUPVM, sweepScenario(total, 10, w.seed), 1, &err)
		c.T4xObtr[i], c.T4xCost[i] = record(out)
	}
	tr.end()

	tr.begin("harness.table5")
	c.T5PVM = secs(w.run(tr, "pvm.quiet_run", harness.RunPVM, t1, 0, &err))
	c.T5ADM = secs(w.run(tr, "adm.quiet_run", harness.RunADM, t1, 0, &err))
	tr.end()

	tr.begin("harness.table6")
	for i, total := range harness.Table2Sizes {
		out := w.run(tr, "adm.migrate_run", harness.RunADM, sweepScenario(total, 8, w.seed), 1, &err)
		obtr, cost := record(out)
		if err == nil && obtr != cost {
			err = fmt.Errorf("table 6 %d bytes: ADM obtrusiveness %.3f != cost %.3f", total, obtr, cost)
		}
		c.T6Cost[i] = cost
	}
	tr.end()
	return c, err
}

// paperCell pairs one measured cell with the paper's value and the band
// tier-1's TestTable1..6 accept around it (|measured − paper| ≤ rel×paper +
// abs; a zero band means the cell is only reported).
type paperCell struct {
	name            string
	measured, paper float64
	rel, abs        float64
}

// cells lists every cell of the pass that has a paper value.
func (c *paperCells) cells() []paperCell {
	out := []paperCell{
		{"table1 PVM", c.T1PVM, 198, 0, 0},
		{"table1 MPVM", c.T1MPVM, 198, 0, 0},
		{"table3 PVM", c.T3PVM, 4.92, 0, 0},
		{"table3 UPVM", c.T3UPVM, 4.75, 0, 0},
		{"table4 obtr", c.T4Obtr, 1.67, 0, 0},
		{"table4 cost", c.T4Cost, 6.88, 0, 0},
		{"table5 PVM_opt", c.T5PVM, 188, 0, 0},
		{"table5 ADMopt", c.T5ADM, 232, 0, 0},
	}
	for i, total := range harness.Table2Sizes {
		mb := fmt.Sprintf(" %.1f MB", float64(total)/1e6)
		out = append(out,
			paperCell{"table2 raw" + mb, c.T2Raw[i], harness.PaperTable2RawTCP[i], 0.15, 0.05},
			paperCell{"table2 obtr" + mb, c.T2Obtr[i], harness.PaperTable2Obtr[i], 0.25, 0.3},
			paperCell{"table2 cost" + mb, c.T2Cost[i], harness.PaperTable2Cost[i], 0.25, 0.4},
			paperCell{"table6 cost" + mb, c.T6Cost[i], harness.PaperTable6Cost[i], 0.35, 0.5},
		)
	}
	return out
}

// check applies the acceptance bands of tier-1's TestTable1..6 to every
// cell (the four sizes those tests sample and the two they skip alike).
func (c *paperCells) check() error {
	if c.Records != 19 {
		return fmt.Errorf("%d migration records in the pass, want 19", c.Records)
	}
	for _, cell := range c.cells() {
		if cell.rel == 0 {
			continue
		}
		if math.Abs(cell.measured-cell.paper) > cell.rel*cell.paper+cell.abs {
			return fmt.Errorf("%s = %.3f s outside the accepted band around the paper's %.2f s", cell.name, cell.measured, cell.paper)
		}
	}
	switch {
	case c.T1PVM < 170 || c.T1PVM > 220:
		return fmt.Errorf("table 1: PVM quiet case %.1f s, paper 198 s", c.T1PVM)
	case math.Abs(c.T1MPVM-c.T1PVM)/c.T1PVM > 0.02:
		return fmt.Errorf("table 1: MPVM %.1f s differs from PVM %.1f s by more than 2%%", c.T1MPVM, c.T1PVM)
	case c.T3PVM < 4.2 || c.T3PVM > 5.6:
		return fmt.Errorf("table 3: PVM %.2f s, paper 4.92 s", c.T3PVM)
	case c.T3UPVM >= c.T3PVM || (c.T3PVM-c.T3UPVM)/c.T3PVM > 0.15:
		return fmt.Errorf("table 3: UPVM %.2f s vs PVM %.2f s, paper has UPVM ~3%% ahead", c.T3UPVM, c.T3PVM)
	case c.T4Obtr < 1.1 || c.T4Obtr > 2.3:
		return fmt.Errorf("table 4: obtrusiveness %.2f s, paper 1.67 s", c.T4Obtr)
	case c.T4Cost < 5.5 || c.T4Cost > 8.5:
		return fmt.Errorf("table 4: migration cost %.2f s, paper 6.88 s", c.T4Cost)
	case c.T5ADM/c.T5PVM < 1.15 || c.T5ADM/c.T5PVM > 1.33:
		return fmt.Errorf("table 5: ADM/PVM ratio %.2f, paper 1.23", c.T5ADM/c.T5PVM)
	}
	for i := range c.T2Cost {
		if c.T2Cost[i] <= c.T2Obtr[i] {
			return fmt.Errorf("table 2 row %d: cost %.2f ≤ obtrusiveness %.2f", i, c.T2Cost[i], c.T2Obtr[i])
		}
	}
	return nil
}

// errPct is the mean |measured − paper| ÷ paper over cells() in percent.
func (c *paperCells) errPct() float64 {
	var s float64
	cells := c.cells()
	for _, cell := range cells {
		s += math.Abs(cell.measured-cell.paper) / cell.paper
	}
	return 100 * s / float64(len(cells))
}

func (c *paperCells) fingerprint() uint64 {
	h := newHash()
	for _, cell := range c.cells() {
		h.f64(cell.measured)
	}
	for i := range c.T4xCost {
		h.f64(c.T4xObtr[i])
		h.f64(c.T4xCost[i])
	}
	return h.sum()
}

func (w *paperWorkload) op(tr *tracer) (opResult, error) {
	c, err := w.regenerate(tr)
	if err == nil {
		err = c.check()
	}
	return opResult{simCost: c.SimCost, fingerprint: c.fingerprint(), detail: c}, err
}

func (w *paperWorkload) layers(tr *tracer, last opResult, m map[string]float64) {
	for _, table := range []string{"table1", "table2", "table3", "table4", "table4x", "table5", "table6"} {
		m["harness."+table+"_ms"] = median(tr.perSpan("harness."+table)) / 1e6
	}
	tot := tr.totals()
	perOp := func(name string) float64 {
		if lt := tot[name]; lt != nil {
			return lt.Busy / 1e6 / float64(tr.ops())
		}
		return 0
	}
	m["pvm.quiet_run_ms"] = perOp("pvm.quiet_run")
	m["mpvm.quiet_run_ms"] = perOp("mpvm.quiet_run")
	m["mpvm.cold_run_ms"] = perOp("mpvm.cold_run")
	m["upvm.quiet_run_ms"] = perOp("upvm.quiet_run")
	m["upvm.migrate_run_ms"] = perOp("upvm.migrate_run")
	m["adm.quiet_run_ms"] = perOp("adm.quiet_run")
	m["adm.migrate_run_ms"] = perOp("adm.migrate_run")
	if c, ok := last.detail.(*paperCells); ok {
		m["harness.paper_err_pct"] = c.errPct()
		m["upvm.sim_cost_s_0_6mb"] = c.T4Cost
		m["adm.sim_cost_s_20_8mb"] = c.T6Cost[5]
	}
	census := paperCensus(w.seed)
	m["sim.events_per_op"] = float64(census.events)
	m["sim.external_waits_per_op"] = float64(census.externalWaits)
}
