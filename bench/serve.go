package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"time"

	"pvmigrate/internal/serve"
)

// serve_session: one op is one journaled pvmsimd session, driven in process
// through serve.Server's http.Handler with the journal in memory (sockets
// and fsync are not what this box can measure repeatably): submit an opt
// job and a request-driven load job, then sessionRounds control rounds of
// advance + two reads, with owner arrivals, host crashes, a commanded
// migration and a warm evacuation plan on a fixed script; then read the
// fingerprint, close, and replay the journal headlessly. It is the only
// path through serve (JSON decode, the apply mutex, journal encode, views,
// replay), ft rollback, plan.Executor and the centralized gs.Scheduler.
// Replay re-applies the same commands without HTTP or journal, so a gain
// for live apply that costs restart shows inside the same op.

// The session script.
const (
	sessionRounds  = 300
	sessionHosts   = 4
	optIterations  = 400
	loadRatePerSec = 10
	loadRequests   = 300
	loadReqFlops   = 300_000 // ~15 ms of a 1994 CPU: the two workers run at about a fifth of capacity
	// loadArrivalSeed fixes the request schedule as part of the script. Drawn
	// from the run's seed it decides which host is least loaded at the
	// instant an evacuation picks its destination, which flips the number
	// of migrations and moves sim_cost by 40% from seed to seed.
	loadArrivalSeed = 1994
	advanceMs       = 100
	ownerEvery      = 50 // owner of host 1 arrives or leaves
	ownerPhase      = 10 // ... first at this round
	crashOutageMs   = 2000
	migrateRound    = 75
	migrateToHost   = 1
	planRound       = 150
	planEvacuates   = 2
	drainAdvanceMs  = 60_000 // lets the plan and the jobs settle before the final reads
)

// crashRounds are the rounds at which host 3 crashes for crashOutageMs. Both
// come before planRound: until the plan runs, the load job's workers sit on
// host 2 and cannot be on the crashed host. A crash under a load worker is
// not replay-deterministic at this commit (six replays of one such journal
// gave three fingerprints), so the script keeps the two apart.
var crashRounds = [2]int{40, 120}

// Request classes the handler decorator keeps apart.
const (
	classAdvance = iota
	classRead
	classMutate
	classSubmit
	requestClasses
)

// sessionOutcome is what one session produced.
type sessionOutcome struct {
	simCost     float64
	fingerprint uint64

	commands      int
	journalBytes  int
	responseBytes int
	recoveries    int
	vpsMoved      int
	loadP99Ms     float64
	violations    int
	events        uint64
	externalWaits uint64
	mutations     []int // status of every mutation, in order
}

type serveWorkload struct {
	// Request bodies are part of the fixture: identical bytes every op.
	submitOpt, submitLoad, advance, drain, crash, plan []byte
	ownerOn, ownerOff                                  []byte

	first []int // mutation statuses of the first op

	// Traced-pass state.
	classN  [requestClasses]int64
	classNs [requestClasses]time.Duration
}

func buildServe(uint64) (workload, error) {
	w := &serveWorkload{}
	w.submitOpt = []byte(fmt.Sprintf(`{"kind":"opt","iterations":%d}`, optIterations))
	w.submitLoad = []byte(fmt.Sprintf(
		`{"kind":"load","workers":2,"worker_hosts":[2],"rate_per_sec":%d,"requests":%d,"seed":%d,"req_flops":%d}`,
		loadRatePerSec, loadRequests, loadArrivalSeed, loadReqFlops))
	w.advance = []byte(fmt.Sprintf(`{"ms":%d}`, advanceMs))
	w.drain = []byte(fmt.Sprintf(`{"ms":%d}`, drainAdvanceMs))
	w.crash = []byte(fmt.Sprintf(`{"kind":"host-crash","host":3,"outage_ms":%d}`, crashOutageMs))
	w.plan = []byte(fmt.Sprintf(
		`{"name":"evac-h%d","groups":[{"name":"all","from_host":%d,"mode":"warm","placement":"least-loaded","concurrency":2}]}`,
		planEvacuates, planEvacuates))
	w.ownerOn = []byte(`{"host":1,"active":true}`)
	w.ownerOff = []byte(`{"host":1,"active":false}`)
	return w, nil
}

// client issues requests straight into the handler.
type client struct {
	h        http.Handler
	tr       *tracer
	w        *serveWorkload
	respSize int
	err      error
}

// do sends one request and returns the status and body. Reads and advances
// must answer 2xx; a mutation's status is the caller's to judge.
func (c *client) do(class int, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	if c.tr != nil {
		start := time.Now()
		c.h.ServeHTTP(rec, req)
		d := time.Since(start)
		c.w.classN[class]++
		c.w.classNs[class] += d
		c.tr.sample(classSeries[class], d)
	} else {
		c.h.ServeHTTP(rec, req)
	}
	c.respSize += rec.Body.Len()
	if (class == classAdvance || class == classRead) && rec.Code/100 != 2 && c.err == nil {
		c.err = fmt.Errorf("%s %s answered %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Code, rec.Body.Bytes()
}

var classSeries = [requestClasses]string{"serve.advance", "serve.read", "serve.mutate", "serve.submit"}

func (w *serveWorkload) session(tr *tracer) (sessionOutcome, error) {
	var out sessionOutcome
	journal := &bytes.Buffer{} // the journal's io.Writer: memory, no fsync
	tr.begin("serve.new")
	srv, err := serve.NewServer(serve.Options{Config: serve.Config{Hosts: sessionHosts}, Journal: journal})
	tr.end()
	if err != nil {
		return out, fmt.Errorf("start server: %w", err)
	}
	c := &client{h: srv, tr: tr, w: w}
	mutate := func(class int, path string, body []byte) {
		code, _ := c.do(class, http.MethodPost, path, body)
		out.mutations = append(out.mutations, code)
	}

	tr.begin("serve.live")
	mutate(classSubmit, "/v1/jobs", w.submitOpt)
	mutate(classSubmit, "/v1/jobs", w.submitLoad)
	ownerActive := false
	for round := 0; round < sessionRounds; round++ {
		if round%ownerEvery == ownerPhase {
			ownerActive = !ownerActive
			body := w.ownerOff
			if ownerActive {
				body = w.ownerOn
			}
			mutate(classMutate, "/v1/owner", body)
		}
		if round == crashRounds[0] || round == crashRounds[1] {
			mutate(classMutate, "/v1/faults", w.crash)
		}
		c.do(classAdvance, http.MethodPost, "/v1/advance", w.advance)
		c.do(classRead, http.MethodGet, "/v1/metrics", nil)
		_, tasks := c.do(classRead, http.MethodGet, "/v1/tasks", nil)
		switch round {
		case migrateRound:
			victim, err := pickVictim(tasks)
			if err != nil && c.err == nil {
				c.err = err
			}
			mutate(classMutate, "/v1/migrations", []byte(fmt.Sprintf(`{"orig":%d,"to":%d}`, victim, migrateToHost)))
		case planRound:
			mutate(classMutate, "/v1/plans", w.plan)
		}
	}
	c.do(classAdvance, http.MethodPost, "/v1/advance", w.drain)

	var migs []serve.MigrationView
	var jobs []serve.JobView
	var plans []serve.PlanView
	var snap serve.MetricsSnapshot
	var fp struct {
		Fingerprint string `json:"fingerprint"`
		Commands    int    `json:"commands"`
	}
	c.get("/v1/migrations", &migs)
	c.get("/v1/jobs", &jobs)
	c.get("/v1/plans", &plans)
	c.get("/v1/metrics", &snap)
	c.get("/v1/fingerprint", &fp)
	srv.Close()
	tr.leaf("serve.advance", w.classN[classAdvance], w.classNs[classAdvance])
	tr.leaf("serve.read", w.classN[classRead], w.classNs[classRead])
	tr.leaf("serve.mutate", w.classN[classMutate], w.classNs[classMutate])
	tr.leaf("serve.submit", w.classN[classSubmit], w.classNs[classSubmit])
	w.classN, w.classNs = [requestClasses]int64{}, [requestClasses]time.Duration{}
	tr.end()
	if c.err != nil {
		return out, c.err
	}

	tr.begin("serve.replay")
	replayed, err := serve.ReplayJournal(bytes.NewReader(journal.Bytes()))
	tr.end()
	if err != nil {
		return out, fmt.Errorf("replay journal: %w", err)
	}
	if got := replayed.FingerprintHex(); got != fp.Fingerprint {
		return out, fmt.Errorf("replay fingerprint %s diverged from live %s", got, fp.Fingerprint)
	}

	if tr != nil {
		// The journal's own cost, measured from outside: re-append the
		// session's commands to a fresh in-memory journal.
		cmds := replayed.History()
		tr.begin("serve.journal")
		jw, err := serve.NewJournalWriter(io.Discard, replayed.Config())
		for i := 0; err == nil && i < len(cmds); i++ {
			err = jw.Append(cmds[i])
		}
		tr.end()
		if err != nil {
			return out, fmt.Errorf("re-append journal: %w", err)
		}
	}

	for _, m := range migs {
		if m.ReintegratedMs > 0 {
			out.simCost += float64(m.ReintegratedMs-m.StartMs) / 1000
		}
	}
	h := newHash()
	for i := 0; i < len(fp.Fingerprint); i++ {
		h.u64(uint64(fp.Fingerprint[i]))
	}
	h.i64(int64(len(migs)))
	h.f64(out.simCost)
	out.fingerprint = h.sum()
	out.commands = fp.Commands
	out.journalBytes = journal.Len()
	out.responseBytes = c.respSize
	out.recoveries = snap.Recoveries
	out.externalWaits = snap.ExternalWaits
	out.events = replayed.Kernel().EventsScheduled()
	for _, p := range plans {
		out.vpsMoved += p.Moved
		if !p.Done || p.Failed != 0 {
			return out, fmt.Errorf("plan %q: done=%v moved=%d failed=%d", p.Name, p.Done, p.Moved, p.Failed)
		}
	}
	for _, j := range jobs {
		if j.Kind == serve.JobLoad {
			if !j.Done || j.Err != "" || j.Completed != loadRequests {
				return out, fmt.Errorf("load job: done=%v completed=%d/%d err=%q", j.Done, j.Completed, loadRequests, j.Err)
			}
			out.violations = j.Violations
			if j.Latency != nil {
				out.loadP99Ms = j.Latency.P99 * 1000
			}
		}
	}
	if len(migs) == 0 || out.simCost <= 0 {
		return out, fmt.Errorf("session recorded %d migrations costing %.3f virtual s", len(migs), out.simCost)
	}
	return out, nil
}

// get reads one JSON view.
func (c *client) get(path string, v any) {
	_, body := c.do(classRead, http.MethodGet, path, nil)
	if err := json.Unmarshal(body, v); err != nil && c.err == nil {
		c.err = fmt.Errorf("GET %s: decode: %w", path, err)
	}
}

// pickVictim chooses the commanded migration's task: the first live,
// settled opt slave that is neither beside the master nor already on the
// destination host.
func pickVictim(tasksJSON []byte) (int, error) {
	var tasks []serve.TaskView
	if err := json.Unmarshal(tasksJSON, &tasks); err != nil {
		return 0, fmt.Errorf("GET /v1/tasks: decode: %w", err)
	}
	for _, t := range tasks {
		if strings.HasPrefix(t.Name, "ft-slave") && t.Host != migrateToHost && t.Host != 0 &&
			!t.Exited && !t.Migrating && !t.Orphaned {
			return t.Orig, nil
		}
	}
	return 0, fmt.Errorf("no task to migrate among %d", len(tasks))
}

func (w *serveWorkload) op(tr *tracer) (opResult, error) {
	out, err := w.session(tr)
	if err == nil {
		if w.first == nil {
			w.first = out.mutations
		} else if !slices.Equal(out.mutations, w.first) {
			err = fmt.Errorf("mutation statuses %v differ from the first op's %v", out.mutations, w.first)
		}
	}
	return opResult{simCost: out.simCost, fingerprint: out.fingerprint, detail: out}, err
}

func (w *serveWorkload) layers(tr *tracer, last opResult, m map[string]float64) {
	m["serve.advance_us_p50"] = percentile(tr.values("serve.advance"), 50) / 1e3
	m["serve.advance_us_p90"] = percentile(tr.values("serve.advance"), 90) / 1e3
	m["serve.read_us_p50"] = percentile(tr.values("serve.read"), 50) / 1e3
	m["serve.mutate_us_p50"] = percentile(tr.values("serve.mutate"), 50) / 1e3
	m["serve.submit_ms"] = percentile(tr.values("serve.submit"), 50) / 1e6
	m["serve.replay_ms_per_session"] = median(tr.perSpan("serve.replay")) / 1e6
	out, ok := last.detail.(sessionOutcome)
	if !ok || out.commands == 0 {
		return
	}
	cmds := float64(out.commands)
	m["serve.replay_us_per_cmd"] = median(tr.perSpan("serve.replay")) / 1e3 / cmds
	m["serve.journal_us_per_cmd"] = median(tr.perSpan("serve.journal")) / 1e3 / cmds
	m["serve.journal_bytes_per_cmd"] = float64(out.journalBytes) / cmds
	m["serve.cmds_per_op"] = cmds
	m["serve.response_kb_per_op"] = float64(out.responseBytes) / 1024
	m["ft.recoveries_per_op"] = float64(out.recoveries)
	m["plan.vps_moved_per_op"] = float64(out.vpsMoved)
	m["harness.load_p99_sim_ms"] = out.loadP99Ms
	m["harness.slo_violations_per_op"] = float64(out.violations)
	m["sim.events_per_op"] = float64(out.events)
	m["sim.external_waits_per_op"] = float64(out.externalWaits)
}
