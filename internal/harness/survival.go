package harness

import (
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/metrics"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
)

// SurvivalConfig describes a fault-tolerance survival experiment: an FT-Opt
// run under the GS with heartbeat detection, while a seeded fault plan
// crashes hosts mid-run.
type SurvivalConfig struct {
	// Hosts is the workstation count (default 8). Host 0 carries the GS,
	// the checkpoint store, and the master VP, and is never a crash
	// candidate — losing the single point of control is unrecoverable by
	// design, as in the paper's GS architecture.
	Hosts int
	// Slaves is the slave VP count (default 2*(Hosts-1)+1, e.g. 15 on 8
	// hosts → a 16-VP job). Slaves round-robin over hosts 1..Hosts-1.
	Slaves int
	// TotalBytes / Iterations / Seed / Real configure training as in
	// Scenario.
	TotalBytes int
	Iterations int
	Seed       uint64
	Real       bool
	// Crashes is how many distinct hosts the fault plan kills (k).
	Crashes int
	// CrashFrom / CrashTo bound the (seeded, uniform) crash times.
	CrashFrom, CrashTo sim.Time
	// Outage, when > 0, revives each crashed host that long after its
	// crash.
	Outage sim.Time
	// FT is what the run chooses about the fault-tolerance layer (the
	// checkpoint period).
	FT ft.Config
}

func (c SurvivalConfig) withDefaults() SurvivalConfig {
	if c.Hosts == 0 {
		c.Hosts = 8
	}
	if c.Slaves == 0 {
		c.Slaves = 2*(c.Hosts-1) + 1
	}
	if c.TotalBytes == 0 {
		c.TotalBytes = 600_000
	}
	if c.Iterations == 0 {
		c.Iterations = 12
	}
	if c.CrashTo == 0 {
		c.CrashTo = 30 * time.Second
	}
	if c.CrashFrom == 0 {
		c.CrashFrom = 5 * time.Second
	}
	return c
}

// validate: host 0 is the GS and never runs a slave, so a survival run
// needs at least one host besides it.
func (c SurvivalConfig) validate() error {
	return checkCounts(count{"hosts", c.Hosts, 2}, count{"slaves", c.Slaves, 1})
}

// survivalRunCap bounds a survival run's virtual time in case recovery
// wedges.
const survivalRunCap sim.Time = 2 * time.Hour

// SurvivalOutcome reports the run.
type SurvivalOutcome struct {
	// Result / Err / Elapsed are the application outcome: Err is nil
	// exactly when the master finished all iterations.
	Result  *opt.Result
	Err     error
	Elapsed sim.Time
	// Crashes are the executed host crashes, in time order.
	Crashes []ft.CrashEvent
	// Recoveries are the per-failure recovery measurements.
	Recoveries []ft.RecoveryRecord
	// RecoverySecs collects crash → master-resumed latency per recovery;
	// DetectSecs collects crash → declared-dead latency.
	RecoverySecs *metrics.Series
	DetectSecs   *metrics.Series
	// Checkpoints counts fully-closed coordinated checkpoint rounds.
	Checkpoints int
	// LostWork is the run time the recoveries rolled back (ft.Manager.LostWork).
	LostWork sim.Time
	// Trace holds the fault/checkpoint/recovery timeline.
	Trace *trace.Log
}

// Survival runs the experiment: build the cluster, start heartbeats, the
// GS (failure detection driving an ft.Manager), the FT-Opt job, and the
// seeded fault plan; run to completion or the cap.
func Survival(cfg SurvivalConfig) *SurvivalOutcome {
	out, _ := survival(cfg)
	return out
}

// survival is Survival, also returning the fleet that drove the run (nil
// if it never started): its decision log outlives the world's Close.
func survival(cfg SurvivalConfig) (*SurvivalOutcome, *gs.Fleet) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return &SurvivalOutcome{Err: err}, nil
	}
	w := NewWorld(WorldSpec{
		Hosts:  Workstations(cfg.Hosts, "host%d", 1),
		System: MPVM,
		Trace:  true,
		FT:     &cfg.FT,
	})
	defer w.Close()
	mgr, sched, inj := w.Mgr, w.Fleet, w.Inj
	if cfg.Crashes > 0 {
		candidates := make([]int, 0, cfg.Hosts-1)
		for h := 1; h < cfg.Hosts; h++ {
			candidates = append(candidates, h)
		}
		inj.Install(ft.CrashPlan(cfg.Seed+7, candidates, cfg.Crashes,
			cfg.CrashFrom, cfg.CrashTo, cfg.Outage))
	}

	slaveHosts := make([]int, cfg.Slaves)
	for i := range slaveHosts {
		slaveHosts[i] = i%(cfg.Hosts-1) + 1
	}
	out := &SurvivalOutcome{Trace: w.Log,
		RecoverySecs: &metrics.Series{}, DetectSecs: &metrics.Series{}}
	job, err := ft.StartJob(mgr, ft.JobSpec{
		Opt: opt.Params{TotalBytes: cfg.TotalBytes, Iterations: cfg.Iterations,
			Seed: cfg.Seed, Real: cfg.Real},
		MasterHost: 0,
		SlaveHosts: slaveHosts,
		OnFinish:   func(*ft.JobResult) { w.K.Stop() },
	})
	if err != nil {
		out.Err = err
		return out, nil
	}
	sched.Start()
	w.K.RunUntil(survivalRunCap)

	res := job.Out()
	out.Result = res.Result
	out.Err = res.Err
	out.Elapsed = res.FinishedAt
	if !res.Done && res.Err == nil {
		out.Err = errs.Newf(CodeRunCap, "survival run hit the %v cap", survivalRunCap)
	}
	out.Crashes = inj.Crashes()
	out.Recoveries = mgr.Records()
	out.Checkpoints = mgr.Checkpoints()
	out.LostWork = mgr.LostWork()
	for _, r := range out.Recoveries {
		if r.RecoveredAt > 0 {
			out.RecoverySecs.Add(sim.Seconds(r.RecoveredAt - r.CrashedAt))
		}
		out.DetectSecs.Add(sim.Seconds(r.DetectedAt - r.CrashedAt))
	}
	return out, sched
}
