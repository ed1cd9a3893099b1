// Command bench is the repository's benchmark: four closed-loop,
// single-client workloads over the simulator, measured end to end with
// tracing off and layer by layer in a separate traced pass. README.md in
// this directory defines every workload and metric.
//
// The driver's contract (BENCHMARK.json) is
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object as the last line of standard output. Without
// --workload every workload runs, untraced then traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all): paper_tables, wire_migration, fleet_storm, serve_session")
		seed    = flag.Uint64("seed", 1994, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 25, "how long one pass measures")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass; default both")
		check   = flag.Bool("check", false, "run one checked op per workload (wire_migration also against its in-memory twin), no timing")
		out     = flag.String("out", "bench/out", "directory for trace-<workload>.json")
		compare = flag.Bool("compare", false, "A/A check over two sets of runs collected by aa.sh: bench -compare dirA dirB")
	)
	flag.Parse()
	// The simulator runs one goroutine at a time; a second processor lets
	// the garbage collector and netwire's socket readers run beside it, as
	// they do for a user. More would only add scheduler noise.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare dirA dirB")
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1)))
	case *check:
		if err := checkAll(*name, *seed); err != nil {
			fatalf("check failed: %v", err)
		}
		fmt.Println("check ok")
		return
	}

	defs := workloadDefs
	if *name != "" {
		def := findWorkload(*name)
		if def == nil {
			fatalf("unknown workload %q", *name)
		}
		defs = []workloadDef{*def}
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	d := time.Duration(*seconds) * time.Second
	ok := true
	for i := range defs {
		if *trace != 1 {
			ok = emit(endToEnd(&defs[i], *seed, d), endToEndMetrics) && ok
		}
		if *trace != 0 {
			ok = emit(traced(&defs[i], *seed, d, *out), perLayer) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine is the object the driver reads from the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints a report: a human-readable block, then the result line. It
// returns false when the run cannot be trusted: an op failed (the line says
// "correct": false) or a metric was not measured (no line is printed).
func emit(rep *report, defs []metricDef) bool {
	fmt.Printf("# %s\n", rep.workload)
	for _, n := range rep.notes {
		fmt.Printf("#   %s\n", n)
	}
	line := resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, md := range defs {
		v, ok := rep.metrics[md.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured (first error: %v)\n", rep.workload, md.name, rep.firstErr)
			return false
		}
		better := "lower"
		if md.higher {
			better = "higher"
		}
		bound := ""
		if md.bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", md.bound*100)
		}
		fmt.Printf("#   %-34s %16.6g %-6s %s is better%s\n", md.name, v, md.unit, better, bound)
		line.Metrics[md.name] = metricValue{Value: v, Unit: md.unit}
	}
	fmt.Printf("#   ops attempted %d, failed %d\n", rep.attempted, rep.failed)
	if len(rep.diag) > 0 {
		// Raw wall-clock twins of the calibrated metrics, for aa.sh.
		diag := line
		diag.Metrics = map[string]metricValue{}
		for name, v := range rep.diag {
			diag.Metrics[name] = metricValue{Value: v, Unit: "raw"}
		}
		if b, err := json.Marshal(diag); err == nil {
			fmt.Printf("#diag %s\n", b)
		}
	}
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", rep.workload, rep.firstErr)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode result: %v\n", err)
		return false
	}
	fmt.Println(string(b))
	return line.Correct
}

// checkAll runs one checked op of each workload without timing anything:
// the mode tier-1 uses to compile and exercise the benchmark.
func checkAll(name string, seed uint64) error {
	for i := range workloadDefs {
		def := &workloadDefs[i]
		if name != "" && name != def.name {
			continue
		}
		w, err := def.build(seed)
		if err != nil {
			return fmt.Errorf("%s: build fixture: %w", def.name, err)
		}
		// A throwaway tracer turns on the traced-only cross-checks (the
		// in-memory twin, the assembled fleet, the journal re-append).
		tr := newTracer()
		tr.beginOp(def.root)
		res, err := w.op(tr)
		tr.endOp(1)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		plain, err := w.op(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		if plain.fingerprint != res.fingerprint || plain.simCost != res.simCost {
			return fmt.Errorf("%s: traced and untraced ops disagree: cost %v vs %v", def.name, res.simCost, plain.simCost)
		}
		fmt.Printf("%-15s ok  sim_cost %.6f  fingerprint %016x\n", def.name, res.simCost, res.fingerprint)
	}
	return nil
}
