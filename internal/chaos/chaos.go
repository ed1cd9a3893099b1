// Package chaos is a deterministic interleaving explorer for the concurrent
// reclaim / crash-recovery protocols, plus the invariant checkers that audit
// each explored schedule.
//
// The simulation kernel is already deterministic for a fixed event set; what
// chaos adds is *controlled variation*: a seeded tie-breaker (sim.Kernel.
// SetTieBreakSeed) permutes the service order of same-instant events, and a
// seeded fault-timing sweeper slides crash / reclaim / partition instants
// across a scenario's protocol windows (detection, flush, skeleton start,
// state transfer, rollback). One seed therefore names one complete schedule:
// any invariant violation found by a sweep is reproduced, exactly, by
// re-running its single seed (go test ./internal/chaos -run TestSeed -seed N).
//
// Every run is audited by five checkers (checkers.go): epoch monotonicity,
// at-most-one live incarnation per stable tid, VP conservation, checkpoint
// commit monotonicity, and seed-determinism. DESIGN.md §"Concurrency
// invariants" maps each checker to the protocol rule it enforces.
package chaos

import (
	"fmt"
	"math"
	"time"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

// The explored cluster and job, the same for every seed.
const (
	// hosts is the cluster size. Host 0 carries the GS, the checkpoint
	// store, and the job master; every other host two slave VPs.
	hosts = 5
	// iterations is the training length.
	iterations = 10
	// checkpointEvery is the coordinated-checkpoint period.
	checkpointEvery = 2
	// deadline caps virtual time; a run that has not finished by then is a
	// liveness failure.
	deadline sim.Time = 30 * time.Minute
)

// Config names one exploration run.
type Config struct {
	// Seed names the schedule: it feeds both the kernel tie-breaker and the
	// scenario's fault-timing windows.
	Seed uint64
	// Real switches the job to real Opt math, so FinalLoss is a bit-exact
	// fingerprint of every gradient the master applied (default false:
	// cost-model mode, faster for wide sweeps).
	Real bool
}

// Scenario is one fault shape whose instants the sweeper slides per seed.
type Scenario struct {
	Name string
	// Warm makes every MPVM migration in the run — including the GS
	// evacuations the owner changes trigger — use the iterative precopy
	// protocol instead of stop-and-copy, so the fault instants sweep
	// across precopy rounds and the cutover window.
	Warm bool
	// Build draws the seed's fault schedule and owner-activity changes from
	// one timing stream (derived from the run seed, independent of the
	// kernel tie-break stream), so correlated instants — a crash offset
	// from the reclaim it races — stay correlated as the seed sweeps.
	Build func(rng *sim.RNG) ([]ft.Fault, []OwnerChange)
	// ADMSignals, when non-nil, enables the ADM overlay: an ADMopt job
	// (master on host 0, one slave per other host) runs alongside the ft
	// job, and the returned signals are delivered to its slaves — data
	// redistribution racing the VP migrations the owner changes trigger.
	// It draws from the same timing stream as Build, after it, so its
	// instants stay correlated with the fault schedule across a sweep.
	ADMSignals func(rng *sim.RNG, owners []OwnerChange) []ADMSignal
	// ULPMoves, when non-nil, enables the UPVM overlay: one ULP per
	// non-zero host computes beside the ft job, and the returned moves
	// drive the UPVM hand-off protocol (flush barrier and all) across the
	// faults Build installed. Draws from the same timing stream, after
	// ADMSignals.
	ULPMoves func(rng *sim.RNG, faults []ft.Fault) []ULPMove
}

// OwnerChange flips a host's owner-active state at a virtual instant.
type OwnerChange struct {
	At     sim.Time
	Host   int
	Active bool
}

// ADMSignal delivers a migration event to an ADM overlay slave at a
// virtual instant ("withdraw" or "rebalance").
type ADMSignal struct {
	At     sim.Time
	Slave  int
	Kind   string
	Reason core.MigrationReason
}

// ULPMove orders ULP ULP to host Dest at a virtual instant. Moves that
// cannot start (ULP already migrating, finished, or on Dest) are part of
// the swept schedule, not errors.
type ULPMove struct {
	At   sim.Time
	ULP  int
	Dest int
}

// Result is one explored schedule plus the handles the checkers audit.
type Result struct {
	Scenario string
	Seed     uint64

	// Job outcome.
	Done       bool
	Err        error
	Iterations int
	FinalLoss  float64
	FinishedAt sim.Time

	// Introspection for the checkers.
	Sys   *mpvm.System
	Mgr   *ft.Manager
	Job   *ft.Job
	Sched *gs.Fleet
	Log   *trace.Log

	// ADM overlay outcome (ADMActive only when the scenario enables it).
	ADMActive bool
	ADMDone   bool
	ADMErr    error
	ADMLoss   float64
	ADMMoves  int

	// UPVM overlay outcome (ULPActive only when the scenario enables it).
	ULPActive bool
	ULPCount  int // ULPs started
	ULPDone   int // ULPs whose body finished
	ULPMoved  int // completed ULP migrations
	ULPAborts int // flush barriers that timed out and reverted
	ULPSys    *upvm.System

	// Faults actually installed (time-ordered), for failure reports.
	Faults []ft.Fault
}

// Fingerprint condenses the schedule-visible outcome of a run into a
// comparable value: two runs of the same seed must produce equal
// fingerprints (the determinism invariant).
type Fingerprint struct {
	Done       bool
	Iterations int
	LossBits   uint64
	FinishedAt sim.Time
	Migrations int
	Recoveries int
	Commits    string
	ADMDone    bool
	ADMMoves   int
	ADMLoss    uint64
	ULPDone    int
	ULPMoved   int
	ULPAborts  int
}

// Fingerprint builds the run's determinism fingerprint.
func (r *Result) Fingerprint() Fingerprint {
	commits := ""
	for _, c := range r.Mgr.Store().Commits() {
		commits += fmt.Sprintf("%s@%d;", c.Key, c.Epoch)
	}
	return Fingerprint{
		Done:       r.Done,
		Iterations: r.Iterations,
		LossBits:   math.Float64bits(r.FinalLoss),
		FinishedAt: r.FinishedAt,
		Migrations: len(r.Sys.Records()),
		Recoveries: len(r.Mgr.Records()),
		Commits:    commits,
		ADMDone:    r.ADMDone,
		ADMMoves:   r.ADMMoves,
		ADMLoss:    math.Float64bits(r.ADMLoss),
		ULPDone:    r.ULPDone,
		ULPMoved:   r.ULPMoved,
		ULPAborts:  r.ULPAborts,
	}
}

// faultRNG derives the fault-timing stream from the run seed. It is salted
// differently from the kernel tie-break stream (which uses the seed
// directly) so timing and ordering vary independently.
func faultRNG(seed uint64) *sim.RNG {
	return sim.NewRNG(seed*0x9e3779b97f4a7c15 + 0x7368616b656f7574)
}

// Run executes one scenario under one seed and returns the audited handles.
// The cluster: hosts workstations, host 0 carrying GS + store + master, two
// slave VPs on every other host.
func Run(sc Scenario, cfg Config) *Result {
	k := sim.NewKernel()
	// The checkers read the returned handles' records, not the kernel:
	// closing on every return path leaves them what the run produced.
	defer k.Close()
	k.SetTieBreakSeed(cfg.Seed)

	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf("h%d", i))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	m := pvm.NewMachine(cl, pvm.Config{})
	sys := mpvm.New(m, mpvm.Config{})
	if sc.Warm {
		sys.SetWarmByDefault(true)
	}
	log := &trace.Log{}
	st := ft.NewStack(sys, ft.Config{CheckpointEvery: checkpointEvery},
		gs.FleetPolicy{ReclaimOnOwner: true}, log)
	mgr, sched := st.Mgr, st.Sched

	var faults []ft.Fault
	var owners []OwnerChange
	var admSignals []ADMSignal
	rng := faultRNG(cfg.Seed)
	if sc.Build != nil {
		faults, owners = sc.Build(rng)
	}
	if sc.ADMSignals != nil {
		admSignals = sc.ADMSignals(rng, owners)
	}
	var ulpMoves []ULPMove
	if sc.ULPMoves != nil {
		ulpMoves = sc.ULPMoves(rng, faults)
	}
	st.Inj.Install(ft.Plan{Faults: faults})
	for _, oc := range owners {
		oc := oc
		k.ScheduleAt(oc.At, func() { cl.Host(netsim.HostID(oc.Host)).SetOwnerActive(oc.Active) })
	}

	// settleAfter covers the tail of the fault plan past job completion:
	// a heal landing after the job finishes still needs detection plus a
	// few watch ticks for the rejoin (and orphan reaping) to run.
	var lastEvent sim.Time
	for _, f := range faults {
		if f.At > lastEvent {
			lastEvent = f.At
		}
		if f.Outage > 0 && f.At+f.Outage > lastEvent {
			lastEvent = f.At + f.Outage
		}
	}
	for _, oc := range owners {
		if oc.At > lastEvent {
			lastEvent = oc.At
		}
	}
	for _, as := range admSignals {
		if as.At > lastEvent {
			lastEvent = as.At
		}
	}
	for _, mv := range ulpMoves {
		if mv.At > lastEvent {
			lastEvent = mv.At
		}
	}
	settleUntil := lastEvent + 3*ft.SuspectAfter

	res := &Result{Scenario: sc.Name, Seed: cfg.Seed,
		Sys: sys, Mgr: mgr, Sched: sched, Log: log, Faults: faults}
	opts := opt.Params{Iterations: iterations}
	if cfg.Real {
		opts.Real = true
		opts.InputDim = 4
		opts.Hidden = 4
		opts.Classes = 2
		// Sized (with the virtual-cost multiplier) so the 10-iteration job
		// spans ~20 virtual seconds: the scenarios' 4–10 s fault windows
		// then land mid-computation (iterations 2–5), not after the done
		// broadcast. Overhead inflates only the *virtual* CPU charge, so
		// wide sweeps stay cheap in wall-clock.
		opts.TotalBytes = 100_000
		opts.Overhead = 90
		opts.Seed = 7
	} else {
		opts.TotalBytes = 400_000
	}
	// The run stops only when every enabled job has finished (plus the
	// settle tail), so an ADM overlay still mid-redistribution keeps the
	// kernel alive.
	res.ADMActive = sc.ADMSignals != nil
	res.ULPActive = sc.ULPMoves != nil
	ftDone, admDone, ulpDone := false, !res.ADMActive, !res.ULPActive
	tryStop := func() {
		if !ftDone || !admDone || !ulpDone {
			return
		}
		stopAt := k.Now() + 2*time.Second
		if settleUntil > stopAt {
			stopAt = settleUntil
		}
		k.ScheduleAt(stopAt, func() { k.Stop() })
	}
	slaveHosts := make([]int, 0, 2*(hosts-1))
	for round := 0; round < 2; round++ {
		for h := 1; h < hosts; h++ {
			slaveHosts = append(slaveHosts, h)
		}
	}
	job, err := ft.StartJob(mgr, ft.JobSpec{
		Opt:        opts,
		MasterHost: 0,
		SlaveHosts: slaveHosts,
		OnFinish: func(out *ft.JobResult) {
			ftDone = true
			tryStop()
		},
	})
	if err != nil {
		res.Err = err
		return res
	}
	res.Job = job
	if res.ADMActive {
		if err := startADMOverlay(k, m, res, admSignals, func() {
			admDone = true
			tryStop()
		}); err != nil {
			res.Err = err
			return res
		}
	}
	if res.ULPActive {
		if err := startULPOverlay(k, m, res, ulpMoves, func() {
			ulpDone = true
			tryStop()
		}); err != nil {
			res.Err = err
			return res
		}
	}
	sched.Start()
	k.RunUntil(deadline)

	if res.ULPSys != nil {
		res.ULPMoved = len(res.ULPSys.Records())
	}

	out := job.Out()
	res.Done = out.Done
	res.Err = out.Err
	res.FinishedAt = out.FinishedAt
	if out.Result != nil {
		res.Iterations = out.Result.Iterations
		res.FinalLoss = out.Result.FinalLoss
	}
	if !out.Done && res.Err == nil {
		res.Err = fmt.Errorf("chaos: job not finished by deadline %v", deadline)
	}
	return res
}

// startADMOverlay spawns the ADM job beside the ft job: master on host 0,
// one slave per other host (slave i on host i+1, so owner changes map to
// slave ranks directly), and schedules the scenario's migration signals.
// The overlay always runs the cost model — its determinism pin is the
// fingerprint's move count and loss bits, and cost-model losses are as
// bit-stable as real ones.
func startADMOverlay(k *sim.Kernel, m *pvm.Machine, res *Result,
	signals []ADMSignal, onDone func()) error {
	nSlaves := hosts - 1
	stats := &opt.ADMStats{}
	ap := opt.ADMParams{
		Params: opt.Params{Iterations: iterations, TotalBytes: 200_000},
		Stats:  stats,
	}
	tids := make([]core.TID, nSlaves)
	queues := make([]*adm.EventQueue, nSlaves)
	// The master spawns first so its tid exists for the slaves; its body
	// reads tids, which is fully populated before the kernel runs.
	master, err := m.Spawn(0, "adm-master", func(t *pvm.Task) {
		out, err := opt.RunADMMaster(t, tids, ap)
		res.ADMDone = true
		res.ADMErr = err
		if out != nil {
			res.ADMLoss = out.FinalLoss
		}
		res.ADMMoves = len(stats.Records) + stats.Redistributions
		onDone()
	})
	if err != nil {
		return err
	}
	masterTID := master.Mytid()
	slaveTasks := make([]*pvm.Task, nSlaves)
	for i := 0; i < nSlaves; i++ {
		i := i
		t, err := m.Spawn(i+1, fmt.Sprintf("adm-slave%d", i), func(t *pvm.Task) {
			queues[i] = adm.Attach(t)
			if err := opt.RunADMSlave(t, masterTID, i, tids, queues[i], ap); err != nil && res.ADMErr == nil {
				res.ADMErr = err
			}
		})
		if err != nil {
			return err
		}
		slaveTasks[i] = t
		tids[i] = t.Mytid()
	}
	for _, s := range signals {
		s := s
		if s.Slave < 0 || s.Slave >= nSlaves {
			continue
		}
		k.ScheduleAt(s.At, func() {
			if t := slaveTasks[s.Slave]; !t.Exited() {
				adm.Signal(t, adm.Event{Kind: s.Kind, Reason: s.Reason})
			}
		})
	}
	return nil
}

// startULPOverlay spawns a UPVM application beside the ft job: one ULP per
// non-zero host (ULP rank r on host r+1), each grinding through compute
// bursts sized to span the fault windows. The scenario's moves drive the
// UPVM hand-off protocol — capture, flush barrier, transfer, accept —
// across whatever faults Build installed; the bounded flush barrier is
// what keeps a move issued into a partition from wedging the overlay (and
// losing the ULP) forever.
func startULPOverlay(k *sim.Kernel, m *pvm.Machine, res *Result,
	moves []ULPMove, onDone func()) error {
	usys := upvm.New(m, upvm.Config{})
	res.ULPSys = usys
	res.ULPCount = hosts - 1
	usys.SetTracer(func(actor, stage, detail string) {
		if stage == "2:flush-abort" {
			res.ULPAborts++
		}
	})
	usys.OnPlacement(func(ulpID, host int) {
		if host != -1 {
			return
		}
		res.ULPDone++
		if res.ULPDone == res.ULPCount {
			onDone()
		}
	})
	specs := make([]upvm.ULPSpec, res.ULPCount)
	for i := range specs {
		specs[i] = upvm.ULPSpec{Host: i + 1, DataBytes: 200_000}
	}
	_, err := usys.Start("chaos-ulp", specs, func(u *upvm.ULP, rank int) {
		// ~12 virtual seconds of work before CPU sharing with the ft job
		// stretches it, in one-second bursts so migration pauses land
		// mid-compute wherever the sweep puts them.
		for i := 0; i < 12; i++ {
			if err := u.Compute(u.Host().Spec().Speed); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for _, mv := range moves {
		mv := mv
		k.ScheduleAt(mv.At, func() {
			// A refused move (ULP mid-migration, finished, or already on
			// Dest) is part of the swept schedule.
			_ = usys.Migrate(mv.ULP, mv.Dest, core.ReasonOwnerReclaim)
		})
	}
	return nil
}
