package serve

import (
	"fmt"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/plan"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
)

// Config fixes the cluster a daemon owns. It is JSON-serializable because
// it is the journal header: replay rebuilds the identical cluster from it.
type Config struct {
	// Hosts is the workstation count (default 4). Host 0 carries the GS,
	// the checkpoint store, and opt-job masters.
	Hosts int `json:"hosts"`
	// Seed, when non-zero, seeds the kernel tie-breaker, permuting the
	// service order of same-instant events. Leave zero for serve mode's
	// default schedule-order dispatch: under a permuted order a commanded
	// migration may legitimately abort and resume on its source host
	// (interleaving exploration is the chaos package's job).
	Seed uint64 `json:"seed"`
	// CheckpointEvery is the coordinated-checkpoint period for opt jobs
	// (default 2).
	CheckpointEvery int `json:"checkpoint_every"`
	// LoadThreshold, when > 0, turns on the GS's load-chasing pollers.
	LoadThreshold int `json:"load_threshold"`
}

func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
	return c
}

// validate refuses a host count that, defaults applied, cannot size a
// cluster: it arrives from a flag or a journal header. The field is named
// as the header spells it.
func (c Config) validate() error {
	if c.withDefaults().Hosts < 1 {
		return errs.Newf(CodeBadRequest, "config hosts must be at least 1, got %d", c.Hosts)
	}
	return nil
}

// JobKind selects what a submitted job runs.
type JobKind string

const (
	// JobOpt is the batch training job (ft.StartJob): a master on
	// MasterHost and checkpointed slaves, recovered after host crashes.
	JobOpt JobKind = "opt"
	// JobLoad is the request-driven serving job (harness.StartLoadJob):
	// an open-loop frontend, migratable workers, per-request SLO
	// accounting.
	JobLoad JobKind = "load"
)

// JobSpec is the wire form of a job submission. Exactly the fields for its
// kind matter; the rest stay zero.
type JobSpec struct {
	Kind JobKind `json:"kind"`

	// Opt fields.
	Iterations int   `json:"iterations,omitempty"`
	TotalBytes int   `json:"total_bytes,omitempty"`
	MasterHost int   `json:"master_host,omitempty"`
	SlaveHosts []int `json:"slave_hosts,omitempty"`

	// Load fields.
	Workers     int       `json:"workers,omitempty"`
	WorkerHosts []int     `json:"worker_hosts,omitempty"`
	RatePerSec  float64   `json:"rate_per_sec,omitempty"`
	HorizonMs   int64     `json:"horizon_ms,omitempty"`
	Requests    int       `json:"requests,omitempty"`
	Diurnal     []float64 `json:"diurnal,omitempty"`
	Seed        uint64    `json:"seed,omitempty"`
	ReqFlops    float64   `json:"req_flops,omitempty"`
	ReqBytes    int       `json:"req_bytes,omitempty"`
	SLOMs       int64     `json:"slo_ms,omitempty"`
}

// Job is one submitted job and its live handle.
type Job struct {
	ID          int
	Kind        JobKind
	Spec        JobSpec
	SubmittedAt sim.Time

	// Exactly one of these is set, by Kind.
	Opt  *ft.Job
	Load *harness.LoadJob
}

// Core is the deterministic half of the daemon: the kernel, the cluster,
// the FT/GS stack, and the command log. It has no locks and no goroutines —
// Server serializes access; Replay drives it headlessly.
type Core struct {
	cfg   Config
	k     *sim.Kernel
	cl    *cluster.Cluster
	m     *pvm.Machine
	sys   *mpvm.System
	log   *trace.Log
	mgr   *ft.Manager
	sched *gs.Fleet
	inj   *ft.Injector
	ex    *plan.Executor

	jobs    []*Job
	plans   []*PlanStatus
	history []Command
	applied int
	failed  int
}

// PlanStatus tracks one submitted bulk-migration plan. Done flips (and
// Result fills) inside the kernel when every group has settled, typically
// during a later advance.
type PlanStatus struct {
	ID          int
	Name        string
	SubmittedAt sim.Time
	Done        bool
	Result      *plan.Result
}

// NewCore builds the cluster and starts the GS. wire, when non-nil, routes
// every cross-host frame over the real-transport backend (netwire); replay
// passes nil and must produce identical outcomes (the netwire contract).
func NewCore(cfg Config, wire netsim.Wire) *Core {
	cfg = cfg.withDefaults()
	k := sim.NewKernel()
	if cfg.Seed != 0 {
		k.SetTieBreakSeed(cfg.Seed)
	}
	specs := make([]cluster.HostSpec, cfg.Hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("h%d", i))
	}
	cl := cluster.New(k, netsim.Params{Wire: wire}, specs...)
	m := pvm.NewMachine(cl, pvm.Config{})
	sys := mpvm.New(m, mpvm.Config{})
	log := &trace.Log{}
	sys.SetTracer(func(actor, stage, detail string) {
		log.Record(k.Now(), actor, stage, detail)
	})
	st := ft.NewStack(sys, ft.Config{CheckpointEvery: cfg.CheckpointEvery},
		gs.FleetPolicy{ReclaimOnOwner: true, LoadThreshold: cfg.LoadThreshold}, log)
	st.Sched.Start()
	// The plan executor's only nondeterminism is its placement-probe RNG;
	// seeding it from the journaled config keeps plan execution replayable.
	ex := plan.NewExecutor(sys, cfg.Seed)
	return &Core{
		cfg: cfg, k: k, cl: cl, m: m, sys: sys, log: log,
		mgr: st.Mgr, sched: st.Sched, inj: st.Inj, ex: ex,
	}
}

// Close ends the cluster's life: every proc still parked is unwound and its
// worker reclaimed (sim.Kernel.Close). The Core stays readable — history,
// jobs, metrics, fingerprint — but applies no further command. Idempotent;
// Server.Close calls it, a Replay caller does so itself.
func (c *Core) Close() { c.k.Close() }

// Kernel exposes the kernel for the Server's AwaitExternal bridge.
func (c *Core) Kernel() *sim.Kernel { return c.k }

// Config returns the cluster config (with defaults applied).
func (c *Core) Config() Config { return c.cfg }

// Now is the cluster's virtual time.
func (c *Core) Now() sim.Time { return c.k.Now() }

// History returns the applied command log (the in-memory journal).
func (c *Core) History() []Command { return append([]Command(nil), c.history...) }

// Plans returns the submitted plans in submission order.
func (c *Core) Plans() []*PlanStatus { return append([]*PlanStatus(nil), c.plans...) }

// Job returns job id, or nil.
func (c *Core) Job(id int) *Job {
	if id < 1 || id > len(c.jobs) {
		return nil
	}
	return c.jobs[id-1]
}

// Trace returns trace events from index since on.
func (c *Core) Trace(since int) []trace.Event { return c.log.Since(since) }

// TraceLen returns the trace length.
func (c *Core) TraceLen() int { return c.log.Len() }

// submit validates a job spec against the live cluster and starts it. It
// runs on the wall side of the kernel (task spawns schedule their own
// kernel events); Apply pumps those events afterwards.
func (c *Core) submit(spec JobSpec) (*Job, error) {
	switch spec.Kind {
	case JobOpt:
		return c.submitOpt(spec)
	case JobLoad:
		return c.submitLoad(spec)
	default:
		return nil, errs.Newf(CodeBadRequest, "unknown job kind %q", spec.Kind).
			AddContext("kinds", "opt,load")
	}
}

func (c *Core) submitOpt(spec JobSpec) (*Job, error) {
	if c.mgr.Job() != nil && !c.mgr.ClearFinishedJob() {
		return nil, errs.New(CodeConflict, "an opt job is already running", nil).
			AddContext("kind", string(JobOpt))
	}
	if spec.Iterations == 0 {
		spec.Iterations = 10
	}
	if spec.TotalBytes == 0 {
		spec.TotalBytes = 400_000
	}
	if err := c.checkHost(spec.MasterHost); err != nil {
		return nil, err
	}
	if spec.SlaveHosts == nil {
		for h := 1; h < c.cfg.Hosts; h++ {
			spec.SlaveHosts = append(spec.SlaveHosts, h)
		}
	}
	for _, h := range spec.SlaveHosts {
		if err := c.checkHost(h); err != nil {
			return nil, err
		}
	}
	job := &Job{ID: len(c.jobs) + 1, Kind: JobOpt, Spec: spec, SubmittedAt: c.k.Now()}
	ftJob, err := ft.StartJob(c.mgr, ft.JobSpec{
		Opt: opt.Params{
			Iterations: spec.Iterations,
			TotalBytes: spec.TotalBytes,
		},
		MasterHost: spec.MasterHost,
		SlaveHosts: spec.SlaveHosts,
	})
	if err != nil {
		return nil, errs.AddContext(
			errs.New(CodeConflict, "opt job rejected", err), "kind", string(JobOpt))
	}
	job.Opt = ftJob
	c.jobs = append(c.jobs, job)
	return job, nil
}

func (c *Core) submitLoad(spec JobSpec) (*Job, error) {
	if spec.RatePerSec <= 0 {
		return nil, errs.New(CodeBadRequest, "load job needs rate_per_sec > 0", nil)
	}
	if spec.HorizonMs == 0 {
		if spec.Requests <= 0 {
			return nil, errs.New(CodeBadRequest,
				"load job needs horizon_ms or requests to bound the schedule", nil)
		}
		// Room for the requested count at the mean rate, doubled so the
		// MaxN cap (not the horizon) almost always ends the schedule.
		spec.HorizonMs = int64(2 * float64(spec.Requests) / spec.RatePerSec * 1000)
	}
	for _, h := range spec.WorkerHosts {
		if err := c.checkHost(h); err != nil {
			return nil, err
		}
	}
	ls := harness.LoadSpec{
		Workers:     spec.Workers,
		WorkerHosts: spec.WorkerHosts,
		Arrivals: harness.ArrivalSpec{
			Rate:    spec.RatePerSec,
			Horizon: time.Duration(spec.HorizonMs) * time.Millisecond,
			Start:   c.k.Now(),
			Seed:    spec.Seed,
			Diurnal: spec.Diurnal,
			MaxN:    spec.Requests,
		},
		ReqFlops: spec.ReqFlops,
		ReqBytes: spec.ReqBytes,
		SLO:      time.Duration(spec.SLOMs) * time.Millisecond,
	}
	job := &Job{ID: len(c.jobs) + 1, Kind: JobLoad, Spec: spec, SubmittedAt: c.k.Now()}
	lj, err := harness.StartLoadJob(c.sys, ls)
	if err != nil {
		return nil, errs.New(CodeBadRequest, "load job rejected", err)
	}
	for _, orig := range lj.WorkerOrigs() {
		c.mgr.Track(orig)
	}
	job.Load = lj
	c.jobs = append(c.jobs, job)
	return job, nil
}

func (c *Core) checkHost(h int) error {
	if h < 0 || h >= c.cfg.Hosts {
		return errs.Newf(CodeNotFound, "host %d outside cluster", h).
			AddContext("hosts", c.cfg.Hosts)
	}
	return nil
}
