package serve

import (
	"math"

	"pvmigrate/internal/metrics"
	"pvmigrate/internal/sim"
)

// views.go is the read side of the control plane: JSON projections of the
// live cluster. Queries never mutate and are never journaled.

// HostView is one workstation's state.
type HostView struct {
	ID          int    `json:"id"`
	Name        string `json:"name"`
	Alive       bool   `json:"alive"`
	OwnerActive bool   `json:"owner_active"`
	Load        int    `json:"load"`
	MemUsedMB   int    `json:"mem_used_mb"`
}

// TaskView is one migratable VP's state, keyed by its stable tid.
type TaskView struct {
	Orig       int    `json:"orig"`
	Current    int    `json:"current"`
	Name       string `json:"name"`
	Host       int    `json:"host"`
	Exited     bool   `json:"exited"`
	Migrating  bool   `json:"migrating"`
	Orphaned   bool   `json:"orphaned"`
	StateBytes int    `json:"state_bytes"`
}

// JobView is one submitted job's status.
type JobView struct {
	ID            int     `json:"id"`
	Kind          JobKind `json:"kind"`
	SubmittedAtMs int64   `json:"submitted_at_ms"`
	Done          bool    `json:"done"`
	Err           string  `json:"err,omitempty"`
	FinishedAtMs  int64   `json:"finished_at_ms,omitempty"`

	// Opt outcome.
	Iterations int     `json:"iterations,omitempty"`
	FinalLoss  float64 `json:"final_loss,omitempty"`

	// Load outcome.
	Requests   int              `json:"requests,omitempty"`
	Completed  int              `json:"completed,omitempty"`
	Violations int              `json:"violations,omitempty"`
	Latency    *metrics.Summary `json:"latency,omitempty"`
}

// MetricsSnapshot is the daemon's periodic telemetry frame; the metrics
// stream emits one after every applied command and pacer tick.
type MetricsSnapshot struct {
	VirtualMs       int64 `json:"virtual_ms"`
	CommandsApplied int   `json:"commands_applied"`
	CommandsFailed  int   `json:"commands_failed"`
	Hosts           int   `json:"hosts"`
	HostsAlive      int   `json:"hosts_alive"`
	DeadHosts       []int `json:"dead_hosts,omitempty"`
	Jobs            int   `json:"jobs"`
	Plans           int   `json:"plans"`
	Migrations      int   `json:"migrations"`
	Recoveries      int   `json:"recoveries"`
	Checkpoints     int   `json:"checkpoints"`
	TraceLen        int   `json:"trace_len"`
	// ExternalWaits audits the wall-clock bridge: how many times the
	// kernel froze virtual time for real I/O (journal appends, wire
	// sends). Excluded from the fingerprint.
	ExternalWaits uint64 `json:"external_waits"`
}

func ms(t sim.Time) int64 { return t.Milliseconds() }

// Hosts projects every workstation.
func (c *Core) Hosts() []HostView {
	out := make([]HostView, 0, c.cfg.Hosts)
	for _, h := range c.w.Cluster.Hosts() {
		out = append(out, HostView{
			ID:          int(h.ID()),
			Name:        h.Name(),
			Alive:       h.Alive(),
			OwnerActive: h.OwnerActive(),
			Load:        h.LoadAverage(),
			MemUsedMB:   h.MemUsedMB(),
		})
	}
	return out
}

// Tasks projects every migratable VP, in stable-tid order (VPIDs sorts).
func (c *Core) Tasks() []TaskView {
	var out []TaskView
	for _, orig := range c.w.MPVM.VPIDs() {
		mt := c.w.MPVM.Task(orig)
		if mt == nil {
			continue
		}
		out = append(out, TaskView{
			Orig:       int(orig),
			Current:    int(c.w.MPVM.CurrentTID(orig)),
			Name:       mt.Name(),
			Host:       int(mt.Host().ID()),
			Exited:     mt.Exited(),
			Migrating:  mt.Migrating(),
			Orphaned:   mt.Orphaned(),
			StateBytes: mt.StateBytes(),
		})
	}
	return out
}

// JobViews projects every job.
func (c *Core) JobViews() []JobView {
	out := make([]JobView, 0, len(c.jobs))
	for _, j := range c.jobs {
		out = append(out, c.jobView(j))
	}
	return out
}

func (c *Core) jobView(j *Job) JobView {
	v := JobView{ID: j.ID, Kind: j.Kind, SubmittedAtMs: ms(j.SubmittedAt)}
	switch j.Kind {
	case JobOpt:
		res := j.Opt.Out()
		v.Done = res.Done
		v.FinishedAtMs = ms(res.FinishedAt)
		if res.Err != nil {
			v.Err = res.Err.Error()
		}
		if res.Result != nil {
			v.Iterations = res.Result.Iterations
			// Cost-model runs report NaN (no real loss); JSON has no NaN,
			// so the field is simply omitted for them.
			if !math.IsNaN(res.Result.FinalLoss) && !math.IsInf(res.Result.FinalLoss, 0) {
				v.FinalLoss = res.Result.FinalLoss
			}
		}
	case JobLoad:
		lj := j.Load
		v.Done = lj.Done
		v.FinishedAtMs = ms(lj.FinishedAt)
		if lj.Err != nil {
			v.Err = lj.Err.Error()
		}
		v.Requests = lj.Requests()
		v.Completed = lj.Completed
		v.Violations = lj.Violations
		if lj.Latency.N() > 0 {
			s := lj.Latency.Summary()
			v.Latency = &s
		}
	}
	return v
}

// Metrics builds the telemetry frame.
func (c *Core) Metrics() MetricsSnapshot {
	alive := 0
	for _, h := range c.w.Cluster.Hosts() {
		if h.Alive() {
			alive++
		}
	}
	return MetricsSnapshot{
		VirtualMs:       ms(c.w.K.Now()),
		CommandsApplied: c.applied,
		CommandsFailed:  c.failed,
		Hosts:           c.cfg.Hosts,
		HostsAlive:      alive,
		DeadHosts:       c.w.Fleet.DeadHosts(),
		Jobs:            len(c.jobs),
		Plans:           len(c.plans),
		Migrations:      len(c.w.MPVM.Records()),
		Recoveries:      len(c.w.Mgr.Records()),
		Checkpoints:     c.w.Mgr.Checkpoints(),
		TraceLen:        c.w.Log.Len(),
		ExternalWaits:   c.w.K.ExternalWaits(),
	}
}
