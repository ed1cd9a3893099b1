// Command pvmlint runs pvmigrate's static determinism and protocol-hygiene
// suite (internal/lint) over the repository:
//
//	go run ./cmd/pvmlint ./...
//
// It proves at compile time what internal/chaos samples at run time: no
// wall-clock reads or order-visible map iteration in sim-driven code, no
// silently dropped protocol errors — and, over the whole program, no
// allocation on the zero-alloc hot paths (noalloc), no blocking host I/O
// outside the AwaitExternal bridge (bridgecall), error codes declared once
// and documented (errcode), and no option field that nothing sets
// (unsetopt).
//
// Exit status 1 means findings were reported; 2 means a package failed to
// load. -json emits one JSON object per finding (file, line, column,
// analyzer, message) for CI annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pvmigrate/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false,
		"emit one JSON object per finding: {file, line, col, analyzer, message}")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pvmlint [-json] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers:\n")
		for _, a := range lint.All(lint.DefaultConfig()) {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.NewLoader().LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.RunAll(lint.NewProgram(pkgs), lint.All(lint.DefaultConfig()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmlint: %v\n", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonOut {
			enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message})
		} else {
			fmt.Printf("%s: %s (%s)\n", d.Position, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pvmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
