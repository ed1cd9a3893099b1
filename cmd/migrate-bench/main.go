// migrate-bench regenerates every table and figure of the paper's
// evaluation section (§4.0) and prints paper-versus-measured comparisons.
//
// Usage:
//
//	migrate-bench              # everything
//	migrate-bench -table 2     # one table (1..6, or "4x" for the extension)
//	migrate-bench -figure 1    # one figure (1..4)
//	migrate-bench -extensions  # the beyond-the-paper experiments
//	migrate-bench -parallel 4  # shard each table's independent runs on 4 threads
package main

import (
	"flag"
	"fmt"
	"os"

	"pvmigrate/internal/harness"
)

func main() {
	table := flag.String("table", "", "regenerate one table: 1, 2, 3, 4, 4x, 5 or 6")
	figure := flag.String("figure", "", "regenerate one figure: 1, 2, 3 or 4")
	extensions := flag.Bool("extensions", false, "run the beyond-the-paper extension experiments")
	parallel := flag.Int("parallel", 0, "worker threads for a table's independent runs (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()
	harness.SetParallel(*parallel)

	tables := map[string]func() string{
		"1":  func() string { return harness.Table1().String() },
		"2":  func() string { return harness.Table2().String() },
		"3":  func() string { return harness.Table3().String() },
		"4":  func() string { return harness.Table4().String() },
		"4x": func() string { return harness.Table4Extended().String() },
		"5":  func() string { return harness.Table5().String() },
		"6":  func() string { return harness.Table6().String() },
	}
	figures := map[string]func() string{
		"1": harness.Figure1,
		"2": harness.Figure2,
		"3": harness.Figure3,
		"4": harness.Figure4,
	}

	switch {
	case *extensions:
		fmt.Println("Extensions beyond the paper's evaluation (see DESIGN.md §8)")
		fmt.Println()
		fmt.Println(harness.ExtensionCheckpoint())
		fmt.Println(harness.ExtensionGranularity())
		fmt.Println(harness.ExtensionCrossTraffic())
		fmt.Println(harness.ExtensionUPVMTuned())
		fmt.Println(harness.ExtensionADMRebalance())
		fmt.Println(harness.ExtensionRoute())
		fmt.Println(harness.ExtensionADMChunk())
	case *table != "":
		fn, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "migrate-bench: unknown table %q\n", *table)
			os.Exit(2)
		}
		fmt.Println(fn())
	case *figure != "":
		fn, ok := figures[*figure]
		if !ok {
			fmt.Fprintf(os.Stderr, "migrate-bench: unknown figure %q\n", *figure)
			os.Exit(2)
		}
		fmt.Println(fn())
	default:
		fmt.Println("Reproducing the evaluation of \"Adaptive load migration systems for PVM\" (SC'94)")
		fmt.Println("Simulated testbed: 2× HP 9000/720 (calibrated), 10 Mb/s shared Ethernet.")
		fmt.Println()
		for _, id := range []string{"1", "2", "3", "4", "4x", "5", "6"} {
			fmt.Println(tables[id]())
		}
		for _, id := range []string{"1", "2", "3", "4"} {
			fmt.Println(figures[id]())
		}
	}
}
