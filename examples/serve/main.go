// Serve mode walkthrough: start the pvmsimd daemon in-process, drive a
// session entirely over its HTTP/JSON control plane — submit a job, advance
// virtual time, command a migration, crash a host — then shut down and
// replay the write-ahead journal headlessly to the exact same fingerprint.
//
// The same session runs against a standalone daemon:
//
//	go run ./cmd/pvmsimd -addr :8090 -journal session.jsonl
//	curl -s -X POST -d '{"kind":"opt"}' localhost:8090/v1/jobs
//	curl -s -X POST -d '{"ms":60000}'   localhost:8090/v1/advance
//	go run ./cmd/pvmsimd -replay session.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"

	"pvmigrate/internal/serve"
)

func main() {
	// The daemon: a 3-host simulated cluster behind an http.Handler, with
	// the command journal captured in memory.
	var journal bytes.Buffer
	srv, err := serve.NewServer(serve.Options{
		Config:  serve.Config{Hosts: 3},
		Journal: &journal,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	post := func(path, body string) map[string]any {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode >= 300 {
			panic(fmt.Sprintf("POST %s: %d %v", path, resp.StatusCode, out))
		}
		return out
	}
	get := func(path string, out any) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		_ = json.NewDecoder(resp.Body).Decode(out)
	}

	// Submit a fault-tolerant optimisation job: master on h0, one slave
	// each on h1 and h2, checkpointing every 2 iterations.
	job := post("/v1/jobs", `{"kind":"opt","iterations":30}`)
	fmt.Printf("submitted job %v (%v)\n", job["id"], job["kind"])

	// The cluster only moves when told to: advance 3 virtual seconds.
	post("/v1/advance", `{"ms":3000}`)

	// Find the slave on host 1 and migrate it to host 2 — the same
	// transparent MPVM protocol, commanded over HTTP.
	var tasks []map[string]any
	get("/v1/tasks", &tasks)
	for _, tk := range tasks {
		if tk["host"].(float64) == 1 && tk["exited"] != true {
			fmt.Printf("migrating task %v off host 1\n", tk["orig"])
			post("/v1/migrations", fmt.Sprintf(`{"orig":%v,"to":2}`, tk["orig"]))
			break
		}
	}
	post("/v1/advance", `{"ms":2000}`)

	// Now crash host 2 (both slaves live there after the migration); it
	// revives 8 virtual seconds later. Heartbeats detect the loss and the
	// FT manager respawns the lost VPs from the last checkpoint.
	fmt.Println("crashing host 2 for 8 virtual seconds")
	post("/v1/faults", `{"kind":"host-crash","host":2,"outage_ms":8000}`)
	post("/v1/advance", `{"ms":600000}`)

	var m serve.MetricsSnapshot
	get("/v1/metrics", &m)
	var jobs []serve.JobView
	get("/v1/jobs", &jobs)
	fmt.Printf("after %.0f virtual seconds: %d migrations, %d recoveries, %d checkpoints\n",
		float64(m.VirtualMs)/1000, m.Migrations, m.Recoveries, m.Checkpoints)
	fmt.Printf("job done=%v after %d iterations\n", jobs[0].Done, jobs[0].Iterations)

	// The live session's fingerprint...
	var fp struct {
		Fingerprint string `json:"fingerprint"`
		Commands    int    `json:"commands"`
	}
	get("/v1/fingerprint", &fp)
	fmt.Printf("live fingerprint:   %s (%d commands journaled)\n", fp.Fingerprint, fp.Commands)

	// ...is reproduced bit for bit by replaying the journal headlessly
	// against a fresh cluster: every mutation flowed through the command
	// log, and the simulation underneath is deterministic.
	replayed, err := serve.ReplayJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		panic(err)
	}
	defer replayed.Close()
	fmt.Printf("replay fingerprint: %s\n", replayed.FingerprintHex())
	if replayed.FingerprintHex() == fp.Fingerprint {
		fmt.Println("identical: the journal is the session")
	}
}
