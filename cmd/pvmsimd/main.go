// pvmsimd is the pvmigrate daemon: it owns a long-running simulated
// cluster and serves the HTTP/JSON control plane (internal/serve) — submit
// jobs, inspect hosts and tasks, command migrations, inject faults, stream
// metrics and trace events. Every mutation is journaled; replaying the
// journal headlessly reproduces the session bit for bit.
//
// Examples:
//
//	pvmsimd -addr :8090 -journal session.jsonl
//	pvmsimd -addr :8090 -tick-wall 200ms -tick-virtual 100ms
//	pvmsimd -replay session.jsonl
//	curl -s localhost:8090/v1/hosts | jq
//
// Exit status: 0 on a clean shutdown or replay, 1 on an I/O or replay
// failure, 2 when the cluster's host count is impossible — from -hosts, or
// from the header of the journal given to -replay (a serve.bad-request /
// serve.journal error naming the field; no journal file is left behind).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address")
	hosts := flag.Int("hosts", 4, "workstation count")
	seed := flag.Uint64("seed", 0, "kernel tie-break seed (0 = schedule order)")
	ckptEvery := flag.Int("checkpoint-every", 2, "coordinated-checkpoint period for opt jobs")
	loadThresh := flag.Int("load-threshold", 0, "GS load-chasing threshold (0 = off)")
	journal := flag.String("journal", "", "write the write-ahead command journal to this file (must not already exist)")
	tickWall := flag.Duration("tick-wall", 0, "pacer: wall-clock period between automatic advances (0 = client-driven time)")
	tickVirtual := flag.Duration("tick-virtual", 100*time.Millisecond, "pacer: virtual time per tick")
	wire := flag.Bool("wire", false, "carry cross-host payloads over real loopback sockets (internal/netwire)")
	replay := flag.String("replay", "", "replay this journal headlessly, print the fingerprint, and exit")
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}

	opts := serve.Options{
		Config: serve.Config{
			Hosts:           *hosts,
			Seed:            *seed,
			CheckpointEvery: *ckptEvery,
			LoadThreshold:   *loadThresh,
		},
		TickWall:    *tickWall,
		TickVirtual: *tickVirtual,
	}
	if *journal != "" {
		// O_EXCL: a journal names exactly one session. Appending to a prior
		// session's file would write a second header mid-stream and render
		// the whole file unreplayable, so refuse instead.
		f, err := os.OpenFile(*journal, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			if os.IsExist(err) {
				fmt.Fprintf(os.Stderr,
					"pvmsimd: journal %s already exists; refusing to overwrite a prior session (replay it with -replay, or choose a new path)\n",
					*journal)
			} else {
				fmt.Fprintf(os.Stderr, "pvmsimd: open journal: %v\n", err)
			}
			os.Exit(1)
		}
		defer f.Close()
		opts.Journal = f
	}
	if *wire {
		wb := netwire.New()
		defer wb.Shutdown()
		opts.Wire = wb
	}

	srv, err := serve.NewServer(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmsimd: %v\n", err)
		if *journal != "" {
			os.Remove(*journal) // created above, still empty: do not block the corrected rerun
		}
		os.Exit(exitStatus(err))
	}
	hs := &http.Server{Addr: *addr, Handler: srv}
	go func() {
		<-srv.Done()
		hs.Close()
	}()
	fmt.Printf("pvmsimd: %d hosts, listening on %s\n", *hosts, *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "pvmsimd: %v\n", err)
		os.Exit(1)
	}
	srv.Close()
	fmt.Println("pvmsimd: shut down cleanly")
}

// exitStatus is 2 for a config the daemon refuses (a flag or journal-header
// count that cannot describe a cluster) and 1 for everything else.
func exitStatus(err error) int {
	if errs.Is(err, serve.CodeBadRequest) {
		return 2
	}
	return 1
}

// runReplay re-executes a journal headlessly and prints what the live
// session's /v1/fingerprint reported, for bit-identical comparison.
func runReplay(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmsimd: open journal: %v\n", err)
		return 1
	}
	defer f.Close()
	core, err := serve.ReplayJournal(f)
	if core != nil {
		defer core.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvmsimd: replay: %v\n", err)
		return exitStatus(err)
	}
	fmt.Printf("replayed %d commands, virtual time %.2f s\n",
		len(core.History()), core.Now().Seconds())
	fmt.Printf("fingerprint: %s\n", core.FingerprintHex())
	return 0
}
