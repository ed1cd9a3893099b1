package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
)

// routes wires the control plane. Mutations are POSTs through post (and
// therefore mutate and the journal); queries are GETs through view.
func (s *Server) routes() {
	s.post("POST /v1/jobs", CmdSubmit, http.StatusCreated, func(r *http.Request, cmd *Command) error {
		cmd.Job = new(JobSpec)
		return decode(r, cmd.Job)
	}, func(c *Core) any { return c.jobView(c.jobs[len(c.jobs)-1]) })
	s.mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any { return c.JobViews() }))
	})
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/hosts", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any { return c.Hosts() }))
	})
	s.mux.HandleFunc("GET /v1/tasks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any { return c.Tasks() }))
	})
	s.post("POST /v1/migrations", CmdMigrate, http.StatusOK, func(r *http.Request, cmd *Command) error {
		cmd.Migrate = new(MigrateArgs)
		return decode(r, cmd.Migrate)
	}, okMetrics)
	s.mux.HandleFunc("GET /v1/migrations", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any { return migrationViews(c) }))
	})
	s.post("POST /v1/plans", CmdPlan, http.StatusCreated, func(r *http.Request, cmd *Command) error {
		cmd.Plan = new(PlanArgs)
		return decode(r, cmd.Plan)
	}, func(c *Core) any { return planView(c.plans[len(c.plans)-1]) })
	s.mux.HandleFunc("GET /v1/plans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any { return planViews(c) }))
	})
	s.post("POST /v1/faults", CmdFault, http.StatusOK, func(r *http.Request, cmd *Command) error {
		cmd.Fault = new(FaultArgs)
		return decode(r, cmd.Fault)
	}, okMetrics)
	s.post("POST /v1/owner", CmdOwner, http.StatusOK, func(r *http.Request, cmd *Command) error {
		cmd.Owner = new(OwnerArgs)
		return decode(r, cmd.Owner)
	}, okMetrics)
	s.post("POST /v1/rollback", CmdRollback, http.StatusOK, nil, func(c *Core) any {
		return map[string]any{"ok": true, "epoch": c.w.Mgr.Epoch()}
	})
	s.post("POST /v1/advance", CmdAdvance, http.StatusOK, func(r *http.Request, cmd *Command) error {
		var body struct {
			Ms int64 `json:"ms"`
		}
		err := decode(r, &body)
		cmd.Advance = time.Duration(body.Ms) * time.Millisecond
		return err
	}, func(c *Core) any { return c.Metrics() })
	s.mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any { return c.Metrics() }))
	})
	s.mux.HandleFunc("GET /v1/metrics/stream", func(w http.ResponseWriter, r *http.Request) {
		s.serveStream(w, r, func(ev StreamEvent) any { return ev })
	})
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/trace/stream", func(w http.ResponseWriter, r *http.Request) {
		s.serveStream(w, r, func(ev StreamEvent) any {
			if len(ev.Trace) == 0 {
				return nil
			}
			return ev.Trace
		})
	})
	s.mux.HandleFunc("GET /v1/journal", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any {
			return map[string]any{"config": c.Config(), "commands": c.History()}
		}))
	})
	s.mux.HandleFunc("GET /v1/fingerprint", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.view(func(c *Core) any {
			return map[string]any{
				"fingerprint": c.FingerprintHex(),
				"virtual_ms":  ms(c.Now()),
				"commands":    c.applied,
			}
		}))
	})
	s.mux.HandleFunc("POST /v1/shutdown", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.shuttingDown = true
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		s.closeOnce.Do(func() { close(s.done) })
	})
}

// post registers the one path every journaled mutation takes: body (nil
// for a command without one) decodes the request into the command, mutate
// journals and applies it, and reply builds the status response.
func (s *Server) post(pattern string, kind CommandKind, status int,
	body func(*http.Request, *Command) error, reply func(*Core) any) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		cmd := Command{Kind: kind}
		if body != nil {
			if err := body(r, &cmd); err != nil {
				writeErr(w, err)
				return
			}
		}
		res, err := s.mutate(cmd, reply)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, status, res)
	})
}

// okMetrics is the reply of a mutation that answers with the metrics.
func okMetrics(c *Core) any { return map[string]any{"ok": true, "metrics": c.Metrics()} }

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, errs.New(CodeBadRequest, "job id must be an integer", err))
		return
	}
	res := s.view(func(c *Core) any {
		j := c.Job(id)
		if j == nil {
			return nil
		}
		v := c.jobView(j)
		return &v
	})
	jv, ok := res.(*JobView)
	if !ok || jv == nil {
		writeErr(w, errs.Newf(CodeNotFound, "no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, jv)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeErr(w, errs.New(CodeBadRequest, "since must be a non-negative integer", err))
			return
		}
		since = n
	}
	writeJSON(w, http.StatusOK, s.view(func(c *Core) any {
		return map[string]any{
			"events": traceViews(c.Trace(since)),
			"next":   c.TraceLen(),
		}
	}))
}

// MigrationView is the wire form of one migration record.
type MigrationView struct {
	VP             int                  `json:"vp"`
	NewTID         int                  `json:"new_tid"`
	From           int                  `json:"from"`
	To             int                  `json:"to"`
	Reason         core.MigrationReason `json:"reason"`
	Mode           core.MigrationMode   `json:"mode"`
	StartMs        int64                `json:"start_ms"`
	OffSourceMs    int64                `json:"off_source_ms"`
	ReintegratedMs int64                `json:"reintegrated_ms"`
	FrozenMs       int64                `json:"frozen_ms"`
	DowntimeMs     int64                `json:"downtime_ms"`
	StateBytes     int                  `json:"state_bytes"`
	Rounds         int                  `json:"rounds,omitempty"`
	PrecopyBytes   int                  `json:"precopy_bytes,omitempty"`
}

func migrationViews(c *Core) []MigrationView {
	recs := c.w.MPVM.Records()
	out := make([]MigrationView, 0, len(recs))
	for _, r := range recs {
		out = append(out, MigrationView{
			VP: int(r.VP), NewTID: int(r.NewTID), From: r.From, To: r.To,
			Reason: r.Reason, Mode: r.Mode,
			StartMs: ms(r.Start), OffSourceMs: ms(r.OffSource),
			ReintegratedMs: ms(r.Reintegrated), FrozenMs: ms(r.Frozen),
			DowntimeMs: ms(r.Downtime()), StateBytes: r.StateBytes,
			Rounds: r.Rounds, PrecopyBytes: r.PrecopyBytes,
		})
	}
	return out
}

// PlanView is the wire form of one submitted plan's status.
type PlanView struct {
	ID            int             `json:"id"`
	Name          string          `json:"name"`
	SubmittedAtMs int64           `json:"submitted_at_ms"`
	Done          bool            `json:"done"`
	Moved         int             `json:"moved,omitempty"`
	Failed        int             `json:"failed,omitempty"`
	ElapsedMs     int64           `json:"elapsed_ms,omitempty"`
	Groups        []PlanGroupView `json:"groups,omitempty"`
}

// PlanGroupView is one settled group of a plan.
type PlanGroupView struct {
	Name     string            `json:"name"`
	Moved    int               `json:"moved"`
	Failed   int               `json:"failed"`
	Outcomes []PlanOutcomeView `json:"outcomes"`
}

// PlanOutcomeView is the fate of one planned migration.
type PlanOutcomeView struct {
	VP   int    `json:"vp"`
	Dest int    `json:"dest"`
	Err  string `json:"err,omitempty"`
}

func planView(st *PlanStatus) PlanView {
	v := PlanView{
		ID: st.ID, Name: st.Name,
		SubmittedAtMs: ms(st.SubmittedAt), Done: st.Done,
	}
	if st.Result != nil {
		v.Moved = st.Result.Moved
		v.Failed = st.Result.Failed
		v.ElapsedMs = ms(st.Result.Elapsed)
		for _, g := range st.Result.Groups {
			gv := PlanGroupView{Name: g.Name, Moved: g.Moved, Failed: g.Failed}
			for _, o := range g.Outcomes {
				gv.Outcomes = append(gv.Outcomes, PlanOutcomeView{
					VP: int(o.VP), Dest: o.Dest, Err: o.Err,
				})
			}
			v.Groups = append(v.Groups, gv)
		}
	}
	return v
}

func planViews(c *Core) []PlanView {
	out := make([]PlanView, 0, len(c.plans))
	for _, st := range c.plans {
		out = append(out, planView(st))
	}
	return out
}

// decode parses a JSON request body into v.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errs.New(CodeBadRequest, "malformed JSON body", err)
	}
	return nil
}

// jsonContentType is the Content-Type value every JSON response shares,
// assigned without the copy Header.Set makes.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before touching the ResponseWriter: an unencodable view (a
	// NaN that slipped into a float field, say) must surface as a 500
	// envelope, not a 200 with an empty body.
	l, err := encodeLine(v)
	if err != nil {
		l.free()
		l, _ = encodeLine(errs.ToEnvelope(
			errs.New(CodeInternal, "response failed to encode", err)))
		status = http.StatusInternalServerError
	}
	defer l.free()
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(l.buf.Bytes())
}

// writeErr renders the structured error envelope with the status its code
// maps to.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(errs.CodeOf(err)), errs.ToEnvelope(err))
}
