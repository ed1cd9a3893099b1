// Package harness wires complete experiment scenarios: a simulated
// two-host (or larger) workstation network running parallel Opt under plain
// PVM, MPVM, UPVM or ADM, with optional mid-run migrations. The benchmark
// suite, the cmd tools and the integration tests all drive experiments
// through this package, so every table and figure is regenerated from the
// same code paths.
//
// Every run's substrate — kernel, cluster, system, Global Scheduler, FT
// layer, trace log — is built by NewWorld from a WorldSpec and ended by
// World.Close: the runners here, serve's daemon core, the chaos explorer
// and the examples each write a spec literal and then their own workload.
package harness

import (
	"fmt"
	"time"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/plan"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

// parallelism bounds the host workers sharding a table's independent runs;
// 0 means GOMAXPROCS, 1 forces the serial path. Every run owns a private
// kernel and cluster, so the setting changes wall-clock only — never a
// result (the same contract TestParallelSweepMatchesSerial pins for the
// chaos sweep).
var parallelism int

// SetParallel sets the worker bound for subsequent table regenerations
// (cmd/migrate-bench -parallel N).
func SetParallel(n int) { parallelism = n }

// Scenario describes one Opt experiment. The default topology is the
// paper's: two HP 9000/720 workstations on 10 Mb/s Ethernet, a master VP
// and one slave VP per machine, data split evenly between the slaves
// (master co-located with slave 0, their execution mutually exclusive in
// time, §4.0).
type Scenario struct {
	// Hosts is the workstation count (default 2).
	Hosts int
	// Slaves is the slave VP count (default Hosts, one per machine).
	Slaves int
	// TotalBytes is the training-set size.
	TotalBytes int
	// Iterations is the predetermined iteration count.
	Iterations int
	// Seed drives all randomness.
	Seed uint64
	// Real carries actual exemplar data and runs the real numerics (keep
	// sets small).
	Real bool
	// MigrateAt, when non-zero, triggers a migration (or ADM withdrawal)
	// of slave MigrateSlave at that virtual time.
	MigrateAt sim.Time
	// MigrateSlave is the slave index to move (default: the last slave).
	MigrateSlave int
	// MigrateTo is the destination host (default 0).
	MigrateTo int
	// Warm selects iterative-precopy (warm) migration for the MigrateAt
	// event on MPVM runs; cold stop-and-copy otherwise. Other systems
	// ignore it (UPVM and ADM have no precopy protocol).
	Warm bool
	// Direct selects task-to-task TCP routing for data messages.
	Direct bool
	// ADMChunk overrides ADMopt's inner-loop chunk size (exemplars between
	// migration-event flag checks); 0 keeps the default.
	ADMChunk int
	// SlaveHosts, when non-nil, places slave i on SlaveHosts[i] instead of
	// round robin (granularity experiments).
	SlaveHosts []int
	// BackgroundLoad adds the given number of competing compute jobs per
	// host before the application starts.
	BackgroundLoad map[int]int
	// UPVM overrides the UPVM cost model (ablations); nil keeps defaults.
	UPVM *upvm.Config
	// CrossTraffic, when in (0,1), injects background Ethernet load at that
	// fraction of link capacity.
	CrossTraffic float64
	// ADMRebalance turns the MigrateAt signal into a "rebalance" event for
	// ADM runs (power-weighted repartition) instead of a withdrawal.
	ADMRebalance bool
	// Wire, when non-nil, installs a real-socket transport backend
	// (internal/netwire): every cross-host payload round-trips through
	// marshal → socket → unmarshal while timing stays the simulated cost
	// model's, so outcomes are identical to the in-memory backend. The
	// caller owns the backend's lifetime (netwire.Backend.Shutdown).
	Wire netsim.Wire
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Hosts == 0 {
		sc.Hosts = 2
	}
	if sc.Slaves == 0 {
		sc.Slaves = sc.Hosts
	}
	if sc.TotalBytes == 0 {
		sc.TotalBytes = 600_000
	}
	if sc.Iterations == 0 {
		sc.Iterations = 4
	}
	if sc.MigrateAt != 0 && sc.MigrateSlave == 0 {
		sc.MigrateSlave = sc.Slaves - 1
	}
	return sc
}

// CodeBadScenario marks a run description that cannot describe a run: a
// count that cannot size a cluster, or a policy name nothing answers to.
// They arrive from command lines, so each input struct has one validate that
// checks them instead of trusting them.
const CodeBadScenario errs.Code = "harness.bad-scenario"

// CodeRunCap marks a run that reached its virtual-time cap before its job
// finished: recovery, or the job itself, wedged.
const CodeRunCap errs.Code = "harness.run-cap"

// count is one checked input, named as its flag spells it.
type count struct {
	name   string
	v, min int
}

func checkCounts(cs ...count) error {
	for _, c := range cs {
		if c.v < c.min {
			return errs.Newf(CodeBadScenario, "%s must be at least %d, got %d", c.name, c.min, c.v)
		}
	}
	return nil
}

func (sc Scenario) validate() error {
	return checkCounts(count{"hosts", sc.Hosts, 1}, count{"slaves", sc.Slaves, 1})
}

func (sc Scenario) params() opt.Params {
	return opt.Params{
		TotalBytes: sc.TotalBytes,
		Iterations: sc.Iterations,
		Seed:       sc.Seed,
		Real:       sc.Real,
	}
}

// slaveHost places slave i: explicit placement when SlaveHosts is set,
// otherwise one slave per machine round robin; the master shares host 0.
func (sc Scenario) slaveHost(i int) int {
	if sc.SlaveHosts != nil {
		return sc.SlaveHosts[i]
	}
	return i % sc.Hosts
}

// masterTID predicts the master's tid: it is spawned on host 0 after that
// host's slaves, so its local id is one past them.
func (sc Scenario) masterTID() core.TID {
	onHost0 := 0
	for i := 0; i < sc.Slaves; i++ {
		if sc.slaveHost(i) == 0 {
			onHost0++
		}
	}
	return core.MakeTID(0, onHost0+1)
}

// Outcome is what an experiment produced.
type Outcome struct {
	// Elapsed is the master's completion time (the paper's application
	// runtime measure).
	Elapsed sim.Time
	// Result is the master's training summary.
	Result *opt.Result
	// Records holds migration measurements (MPVM/UPVM/ADM).
	Records []core.MigrationRecord
	// Err is the first application error.
	Err error
}

// rig is one run: the scenario, its world and the outcome under
// construction. Every runner below starts from newRig, so a Scenario field
// means the same thing under all four systems and under tracing.
type rig struct {
	*World
	sc  Scenario
	out *Outcome
}

// newRig validates the scenario and builds its world. spec carries what the
// runner chooses — system, tracing, fleet policy; the scenario fills in the
// workstations, wire, routing and background load.
func newRig(sc Scenario, spec WorldSpec) (*rig, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	spec.Hosts = Workstations(sc.Hosts, "host%d", 1)
	spec.Wire = sc.Wire
	spec.Direct = sc.Direct
	spec.BackgroundLoad = sc.BackgroundLoad
	spec.CrossTraffic = sc.CrossTraffic
	spec.UPVM = sc.UPVM
	return &rig{World: NewWorld(spec), sc: sc, out: &Outcome{}}, nil
}

// fail keeps the first application error.
func (r *rig) fail(err error) {
	if err != nil && r.out.Err == nil {
		r.out.Err = err
	}
}

// runMaster is the Opt master's body under PVM, MPVM and UPVM.
func (r *rig) runMaster(vp core.VP, slaves []core.TID, p opt.Params) {
	res, err := opt.RunMaster(vp, slaves, p)
	r.finish(vp, res, err)
}

// finish records the master's result and completion time — the paper's
// application runtime measure.
func (r *rig) finish(vp core.VP, res *opt.Result, err error) {
	r.out.Result = res
	r.fail(err)
	r.out.Elapsed = vp.Proc().Now()
	if r.sc.CrossTraffic > 0 {
		// Cross traffic is perpetual: it would keep the event loop alive
		// forever after the application finishes.
		r.K.Stop()
	}
}

// atMigrate schedules the scenario's mid-run event, if it has one.
func (r *rig) atMigrate(act func() error) {
	if r.sc.MigrateAt > 0 {
		r.K.Schedule(r.sc.MigrateAt, func() { r.fail(act()) })
	}
}

// RunPVM executes the scenario on plain PVM (no migration support; any
// MigrateAt is ignored). This is the paper's baseline column.
func RunPVM(sc Scenario) *Outcome {
	r, err := newRig(sc, WorldSpec{System: PVM})
	if err != nil {
		return &Outcome{Err: err}
	}
	defer r.Close()
	p := r.sc.params()
	tids := make([]core.TID, r.sc.Slaves)
	for i := range tids {
		t, err := r.Machine.Spawn(r.sc.slaveHost(i), fmt.Sprintf("opt-slave%d", i), func(t *pvm.Task) {
			r.fail(opt.RunSlave(t, r.sc.masterTID(), p))
		})
		if err != nil {
			r.fail(err)
			return r.out
		}
		tids[i] = t.Mytid()
	}
	if _, err := r.Machine.Spawn(0, "opt-master", func(t *pvm.Task) { r.runMaster(t, tids, p) }); err != nil {
		r.fail(err)
		return r.out
	}
	r.K.Run()
	return r.out
}

// RunMPVM executes the scenario on MPVM, optionally migrating a slave
// mid-run. The returned records carry the obtrusiveness and migration-cost
// measurements of Table 2.
func RunMPVM(sc Scenario) *Outcome {
	out, _ := runMPVM(sc, false, nil)
	return out
}

// runMPVM is the MPVM runner; withTrace also records the protocol stage
// log it returns. act, when non-nil, replaces the commanded migration of
// the scenario's victim at MigrateAt.
func runMPVM(sc Scenario, withTrace bool, act func(sys *mpvm.System, victim core.TID) error) (*Outcome, *trace.Log) {
	r, err := newRig(sc, WorldSpec{System: MPVM, Trace: withTrace})
	if err != nil {
		return &Outcome{Err: err}, nil
	}
	defer r.Close()
	sys := r.MPVM
	tids, err := r.spawnMPVMApp(0)
	if err != nil {
		r.fail(err)
		return r.out, r.Log
	}
	if act == nil {
		act = func(sys *mpvm.System, victim core.TID) error {
			migrate := sys.Migrate
			if r.sc.Warm {
				migrate = sys.MigrateWarm
			}
			return migrate(victim, r.sc.MigrateTo, core.ReasonOwnerReclaim)
		}
	}
	r.atMigrate(func() error { return act(sys, tids[r.sc.MigrateSlave]) })
	r.K.Run()
	r.out.Records = sys.Records()
	return r.out, r.Log
}

// RunMPVMPlan executes the scenario on MPVM and, at MigrateAt, launches a
// declarative evacuation plan of evacHost — every VP the host runs,
// destinations picked by the least-loaded placement — instead of a single
// commanded migration. It returns the outcome and the settled plan result
// (nil when the run finished before the plan settled).
func RunMPVMPlan(sc Scenario, evacHost int, mode plan.Mode, concurrency int) (*Outcome, *plan.Result) {
	var res *plan.Result
	out, _ := runMPVM(sc, false, func(sys *mpvm.System, _ core.TID) error {
		return plan.NewExecutor(sys, sc.Seed).Start(plan.Spec{
			Name: fmt.Sprintf("evac-host%d", evacHost),
			Groups: []plan.Group{{
				Name: "evacuate", FromHost: evacHost, Mode: mode,
				Dest: plan.UnplacedDest, Placement: "least-loaded",
				Concurrency: concurrency,
			}},
		}, func(r plan.Result) { res = &r })
	})
	return out, res
}

// ulpSpecs lays out SPMD_opt: ULP 0 is the master (co-located with slave
// ULP 1 on host 0), the remaining ULPs are slaves holding their shard.
func (sc Scenario) ulpSpecs() []upvm.ULPSpec {
	net := sc.params().Cost().NetBytes()
	specs := make([]upvm.ULPSpec, sc.Slaves+1)
	specs[0] = upvm.ULPSpec{Host: 0, DataBytes: net * 4, StackBytes: 64 << 10}
	for i := 1; i <= sc.Slaves; i++ {
		specs[i] = upvm.ULPSpec{
			Host:       sc.slaveHost(i - 1),
			DataBytes:  sc.TotalBytes/sc.Slaves + net,
			StackBytes: 64 << 10,
		}
	}
	return specs
}

// RunUPVM executes the SPMD scenario on UPVM.
func RunUPVM(sc Scenario) *Outcome {
	out, _ := runUPVM(sc, false)
	return out
}

// runUPVM is the UPVM runner; withTrace as in runMPVM.
func runUPVM(sc Scenario, withTrace bool) (*Outcome, *trace.Log) {
	r, err := newRig(sc, WorldSpec{System: UPVM, Trace: withTrace})
	if err != nil {
		return &Outcome{Err: err}, nil
	}
	defer r.Close()
	sys := r.UPVM
	p := r.sc.params()
	slaveTIDs := make([]core.TID, r.sc.Slaves)
	for i := range slaveTIDs {
		slaveTIDs[i] = upvm.ULPTID(i + 1)
	}
	_, err = sys.Start("opt", r.sc.ulpSpecs(), func(u *upvm.ULP, rank int) {
		if rank == 0 {
			r.runMaster(u, slaveTIDs, p)
			return
		}
		r.fail(opt.RunSlave(u, upvm.ULPTID(0), p))
	})
	if err != nil {
		r.fail(err)
		return r.out, r.Log
	}
	r.atMigrate(func() error {
		return sys.Migrate(r.sc.MigrateSlave+1, r.sc.MigrateTo, core.ReasonOwnerReclaim)
	})
	r.K.Run()
	r.out.Records = sys.Records()
	return r.out, r.Log
}

// RunADM executes the scenario as ADMopt: the same master/slave placement,
// but migration events trigger data redistribution instead of VP movement.
func RunADM(sc Scenario) *Outcome {
	r, err := newRig(sc, WorldSpec{System: PVM})
	if err != nil {
		return &Outcome{Err: err}
	}
	defer r.Close()
	stats := &opt.ADMStats{}
	ap := opt.ADMParams{Params: r.sc.params(), Stats: stats, ChunkExemplars: r.sc.ADMChunk}
	masterTID := r.sc.masterTID()

	slaveTasks := make([]*pvm.Task, r.sc.Slaves)
	tids := make([]core.TID, r.sc.Slaves)
	for i := range tids {
		i := i
		t, err := r.Machine.Spawn(r.sc.slaveHost(i), fmt.Sprintf("admopt-slave%d", i), func(t *pvm.Task) {
			r.fail(opt.RunADMSlave(t, masterTID, i, tids, adm.Attach(t), ap))
		})
		if err != nil {
			r.fail(err)
			return r.out
		}
		slaveTasks[i] = t
		tids[i] = t.Mytid()
	}
	_, err = r.Machine.Spawn(0, "admopt-master", func(t *pvm.Task) {
		res, err := opt.RunADMMaster(t, tids, ap)
		r.finish(t, res, err)
	})
	if err != nil {
		r.fail(err)
		return r.out
	}
	r.atMigrate(func() error {
		ev := adm.Event{Kind: "withdraw", Reason: core.ReasonOwnerReclaim}
		if r.sc.ADMRebalance {
			ev = adm.Event{Kind: "rebalance", Reason: core.ReasonHighLoad}
		}
		adm.Signal(slaveTasks[r.sc.MigrateSlave], ev)
		return nil
	})
	r.K.Run()
	r.out.Records = stats.Records
	return r.out
}

// RawTCP measures a bulk TCP transfer of n bytes between two idle hosts —
// Table 2's lower-bound column.
func RawTCP(bytes int) sim.Time {
	w := NewWorld(WorldSpec{Hosts: Workstations(2, "host%d", 1)})
	defer w.Close()
	l, err := w.Cluster.Host(1).Iface().Listen(9000)
	if err != nil {
		return 0
	}
	var done sim.Time
	w.K.Spawn("sink", func(p *sim.Proc) {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		if _, err := conn.Recv(p); err == nil {
			done = p.Now()
		}
	})
	var start sim.Time
	w.K.Spawn("source", func(p *sim.Proc) {
		start = p.Now()
		conn, err := w.Cluster.Host(0).Iface().Dial(p, 1, 9000)
		if err != nil {
			return
		}
		// lint:reason measurement probe; a failed send leaves done unset, which the caller reports
		_ = conn.Send(p, bytes, nil)
	})
	w.K.Run()
	return done - start
}

// OwnerReclaimScenario runs MPVM under a Global Scheduler: the owner of the
// chosen host returns at ownerAt and the GS evacuates it. It returns the
// scheduler decisions and migration records.
func OwnerReclaimScenario(sc Scenario, ownerHost int, ownerAt sim.Time) (*Outcome, []gs.Decision) {
	pol := gs.DefaultFleetPolicy()
	r, err := newRig(sc, WorldSpec{System: MPVM, Fleet: &pol})
	if err != nil {
		return &Outcome{Err: err}, nil
	}
	defer r.Close()
	// The slaves' images are sized up front, an even share of the training
	// set each, so the evacuation's cost does not depend on how far a slave
	// got with loading its shard when the owner returned.
	tids, err := r.spawnMPVMApp(r.sc.TotalBytes / r.sc.Slaves)
	if err != nil {
		r.fail(err)
		return r.out, nil
	}
	for _, tid := range tids {
		r.VPs.Track(tid)
	}
	r.Fleet.Start()
	r.K.Schedule(ownerAt, func() { r.Cluster.Host(netsim.HostID(ownerHost)).SetOwnerActive(true) })
	r.K.RunUntil(2 * time.Hour)
	r.out.Records = r.MPVM.Records()
	return r.out, r.Fleet.Decisions()
}

// spawnMPVMApp starts the scenario's migratable slave tasks and the master,
// returning the slaves' stable tids. A slave's image is stateBytes, or, when
// that is 0, whatever the slave reports once its shard is loaded.
func (r *rig) spawnMPVMApp(stateBytes int) ([]core.TID, error) {
	tids := make([]core.TID, r.sc.Slaves)
	for i := range tids {
		p := r.sc.params()
		var mtRef *mpvm.MTask
		if stateBytes == 0 {
			p.OnStateBytes = func(n int) {
				if mtRef != nil {
					mtRef.SetStateBytes(n)
				}
			}
		}
		mt, err := r.MPVM.SpawnMigratable(r.sc.slaveHost(i), fmt.Sprintf("opt-slave%d", i), stateBytes,
			func(mt *mpvm.MTask) { r.fail(opt.RunSlave(mt.Task, r.sc.masterTID(), p)) })
		if err != nil {
			return nil, err
		}
		mtRef = mt
		tids[i] = mt.OrigTID()
	}
	// The master links the MPVM library too (every task of an MPVM
	// application does): it needs the tid-remapping hooks to keep talking
	// to migrated slaves.
	p := r.sc.params()
	_, err := r.MPVM.SpawnMigratable(0, "opt-master", 1<<20, func(mt *mpvm.MTask) { r.runMaster(mt.Task, tids, p) })
	return tids, err
}
