package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The A/A comparison behind aa.sh: two sets of runs of the same code must
// agree within the benchmark's own bounds, or the bounds are not ones it can
// hold. A set is a directory with, per workload, <workload>.e2e.jsonl (the
// result lines of the untraced runs), <workload>.layers.jsonl (those of the
// traced runs) and <workload>.diag.jsonl (the "#diag" lines: raw wall-clock
// twins of the calibrated metrics). Run i of both sets uses the same seed.

// readLines parses one JSON object per line into metric-name → values.
func readLines(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !line.Correct {
			return nil, fmt.Errorf("%s: a run reported %d failed ops of %d", path, line.Failed, line.Attempted)
		}
		for name, mv := range line.Metrics {
			out[name] = append(out[name], mv.Value)
		}
	}
	return out, sc.Err()
}

// compareSets prints, per workload × end-to-end metric, both medians, their
// gap in the metric's direction, each set's run-to-run spread and the
// bound, then the raw-versus-calibrated spreads and the exact layer counts
// that moved. It returns the process exit code: 1 on any breach.
func compareSets(dirA, dirB string) int {
	breaches := 0
	for _, def := range workloadDefs {
		a, errA := readLines(filepath.Join(dirA, def.name+".e2e.jsonl"))
		b, errB := readLines(filepath.Join(dirB, def.name+".e2e.jsonl"))
		if os.IsNotExist(errA) && os.IsNotExist(errB) {
			continue // aa.sh was given a subset of the workloads
		}
		if errA != nil || errB != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v %v\n", def.name, errA, errB)
			return 2
		}
		fmt.Printf("%s (%d + %d runs)\n", def.name, len(a["setup_s"]), len(b["setup_s"]))
		fmt.Printf("  %-16s %14s %14s %8s %9s %9s %7s\n", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
		for _, md := range endToEndMetrics {
			va, vb := a[md.name], b[md.name]
			gap := worseBy(median(va), median(vb), md.higher)
			sa, sb := iqrShare(va), iqrShare(vb)
			verdict := ""
			if !withinBound(median(va), median(vb), md.bound, md.higher) {
				verdict = "  BREACH: B worse than A beyond the bound"
			}
			// setup_s is exempt from the spread rule, as in the driver.
			if md.name != "setup_s" && (sa > md.bound || sb > md.bound) {
				verdict += "  BREACH: spread beyond the bound"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Printf("  %-16s %14.6g %14.6g %+7.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				md.name, median(va), median(vb), 100*gap, 100*sa, 100*sb, 100*md.bound, verdict)
		}

		// Calibration must earn its keep: the calibrated metric's spread
		// and A/B gap beside those of its raw wall-clock twin.
		da, errA := readLines(filepath.Join(dirA, def.name+".diag.jsonl"))
		db, errB := readLines(filepath.Join(dirB, def.name+".diag.jsonl"))
		if errA == nil && errB == nil {
			for _, pair := range [][2]string{{"op_ms_p50", "raw_op_ms_p50"}, {"op_ms_p90", "raw_op_ms_p90"}, {"setup_s", "raw_setup_s"}} {
				cal, raw := pair[0], pair[1]
				fmt.Printf("  %-10s calibrated: spread %5.2f%% / %5.2f%%, gap %+6.2f%%   raw: spread %5.2f%% / %5.2f%%, gap %+6.2f%%\n", cal,
					100*iqrShare(a[cal]), 100*iqrShare(b[cal]), 100*worseBy(median(a[cal]), median(b[cal]), false),
					100*iqrShare(da[raw]), 100*iqrShare(db[raw]), 100*worseBy(median(da[raw]), median(db[raw]), false))
			}
		}

		// Exact layer counts: run i of A and run i of B share a seed, so a
		// count that differs is nondeterminism, not noise.
		la, errA := readLines(filepath.Join(dirA, def.name+".layers.jsonl"))
		lb, errB := readLines(filepath.Join(dirB, def.name+".layers.jsonl"))
		if errA == nil && errB == nil {
			moved, exact := 0, 0
			for _, md := range perLayer {
				if !md.exact {
					continue
				}
				exact++
				va, vb := la[md.name], lb[md.name]
				for i := 0; i < len(va) && i < len(vb); i++ {
					if va[i] != vb[i] {
						fmt.Printf("  exact count %s moved: run %d %v vs %v\n", md.name, i+1, va[i], vb[i])
						moved++
						break
					}
				}
			}
			if moved == 0 {
				fmt.Printf("  exact layer counts: all %d identical run for run\n", exact)
			}
			breaches += moved
		}
		fmt.Println()
	}
	if breaches > 0 {
		fmt.Printf("A/A FAILED: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("A/A ok: every median gap and spread is inside its bound")
	return 0
}
