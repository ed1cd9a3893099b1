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

	switch {
	case *extensions:
		fmt.Println("Extensions beyond the paper's evaluation (see DESIGN.md §8)")
		fmt.Println()
		show("extension", "")
	case *table != "":
		show("table", *table)
	case *figure != "":
		show("figure", *figure)
	default:
		fmt.Println("Reproducing the evaluation of \"Adaptive load migration systems for PVM\" (SC'94)")
		fmt.Println("Simulated testbed: 2× HP 9000/720 (calibrated), 10 Mb/s shared Ethernet.")
		fmt.Println()
		show("table", "")
		show("figure", "")
	}
}

// show prints the harness sections of one kind in order: all of them, or
// the one whose id is id. An unknown id exits 2.
func show(kind, id string) {
	found := false
	for _, s := range harness.Sections {
		if s.Kind == kind && (id == "" || s.ID == id) {
			fmt.Println(s.Render())
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "migrate-bench: unknown %s %q\n", kind, id)
		os.Exit(2)
	}
}
