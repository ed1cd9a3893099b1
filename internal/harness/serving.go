package harness

import (
	"fmt"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/metrics"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// serving.go is the request-driven scenario family: instead of one batch
// Opt job, the cluster runs a long-lived serving application — an open-loop
// frontend replaying an ArrivalSpec schedule, a pool of migratable worker
// VPs, and a sink accounting per-request latency against an SLO — while the
// GS migrates workers underneath it (owner reclaims, load chasing). This is
// the surface on which the paper's migration policies meet "heavy traffic"
// instead of batch iterations.

// Message tags of the serving protocol. Requests carry their arrival
// instant so the sink can charge queueing delay, not just service time.
const (
	tagServeReq   = 41 // frontend → worker: one request
	tagServeReply = 42 // worker → sink: request served
	tagServeDone  = 43 // sink → worker/frontend teardown
)

// frontendHost places a serving job's frontend and sink: the GS host.
const frontendHost = 0

// LoadSpec describes one serving job.
type LoadSpec struct {
	// Workers is the worker VP count (default 2).
	Workers int
	// WorkerHosts places worker i; nil means round robin over hosts
	// 1..N-1 (host 0 keeps the frontend and sink).
	WorkerHosts []int
	// Arrivals is the open-loop request schedule.
	Arrivals ArrivalSpec
	// ReqFlops is the per-request compute charge (default 2e6).
	ReqFlops float64
	// ReqBytes is the per-request payload size (default 8 KB).
	ReqBytes int
	// SLO is the per-request latency objective; replies slower than this
	// count as violations (default 250ms).
	SLO sim.Time
}

func (ls LoadSpec) withDefaults() LoadSpec {
	if ls.Workers == 0 {
		ls.Workers = 2
	}
	if ls.ReqFlops == 0 {
		ls.ReqFlops = 2e6
	}
	if ls.ReqBytes == 0 {
		ls.ReqBytes = 8 << 10
	}
	if ls.SLO == 0 {
		ls.SLO = 250 * time.Millisecond
	}
	return ls
}

// workerHost places worker i for a cluster of hosts machines.
func (ls LoadSpec) workerHost(i, hosts int) int {
	if ls.WorkerHosts != nil {
		return ls.WorkerHosts[i%len(ls.WorkerHosts)]
	}
	if hosts <= 1 {
		return 0
	}
	return 1 + i%(hosts-1)
}

// validate refuses the counts that would crash the job's procs: they arrive
// from a serve journal, so they are checked, not trusted. A WorkerHosts list
// that is present must place someone.
func (ls LoadSpec) validate() error {
	cs := []count{{"workers", ls.Workers, 0}, {"req_bytes", ls.ReqBytes, 0}}
	if ls.WorkerHosts != nil {
		cs = append(cs, count{"worker_hosts entries", len(ls.WorkerHosts), 1})
	}
	return checkCounts(cs...)
}

// LoadJob is a running serving application.
type LoadJob struct {
	spec     LoadSpec
	schedule []sim.Time

	frontOrig   core.TID
	sinkOrig    core.TID
	workerOrigs []core.TID

	// Latency accumulates per-request latency in seconds, in completion
	// order.
	Latency *metrics.Series
	// Violations counts replies slower than the SLO.
	Violations int
	// Completed counts served requests.
	Completed int
	// Done flips when every request has been served.
	Done bool
	// FinishedAt is the sink's completion instant.
	FinishedAt sim.Time
	// Err is the first protocol error.
	Err error
	// OnFinish, when set, runs in the sink's proc context at completion.
	OnFinish func(*LoadJob)
}

// WorkerOrigs returns the workers' stable tids (register these with the
// GS target so load balancing and evacuation can move them).
func (lj *LoadJob) WorkerOrigs() []core.TID {
	return append([]core.TID(nil), lj.workerOrigs...)
}

// Requests returns the schedule length.
func (lj *LoadJob) Requests() int { return len(lj.schedule) }

// StartLoadJob spawns the serving application on sys: workers first, then
// the sink, then the frontend, all migratable. The caller runs the kernel.
func StartLoadJob(sys *mpvm.System, spec LoadSpec) (*LoadJob, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	lj := &LoadJob{spec: spec, schedule: spec.Arrivals.Schedule(), Latency: &metrics.Series{}}
	if len(lj.schedule) == 0 {
		return nil, fmt.Errorf("harness: serving job has an empty arrival schedule")
	}
	hosts := len(sys.Machine().Cluster().Hosts())
	for i := 0; i < spec.Workers; i++ {
		i := i
		mt, err := sys.SpawnMigratable(spec.workerHost(i, hosts),
			fmt.Sprintf("serve-worker%d", i), spec.ReqBytes*4,
			func(mt *mpvm.MTask) { lj.runWorker(mt) })
		if err != nil {
			return nil, err
		}
		lj.workerOrigs = append(lj.workerOrigs, mt.OrigTID())
	}
	sink, err := sys.SpawnMigratable(frontendHost, "serve-sink", 16<<10,
		func(mt *mpvm.MTask) { lj.runSink(mt) })
	if err != nil {
		return nil, err
	}
	lj.sinkOrig = sink.OrigTID()
	front, err := sys.SpawnMigratable(frontendHost, "serve-frontend", 16<<10,
		func(mt *mpvm.MTask) { lj.runFrontend(mt) })
	if err != nil {
		return nil, err
	}
	lj.frontOrig = front.OrigTID()
	return lj, nil
}

// runFrontend replays the arrival schedule open-loop: each request is sent
// at its arrival instant regardless of how far behind the workers are (the
// defining property of open-loop load — queueing delay shows up as latency,
// not as a slowed-down generator).
func (lj *LoadJob) runFrontend(mt *mpvm.MTask) {
	for i, at := range lj.schedule {
		if err := mt.SleepUntil(at); err != nil {
			lj.fail(err)
			return
		}
		w := lj.workerOrigs[i%len(lj.workerOrigs)]
		buf := core.NewBuffer().PkInt(i).PkInt(int(at)).PkVirtual(lj.spec.ReqBytes)
		if err := mt.Send(w, tagServeReq, buf); err != nil {
			lj.fail(err)
			return
		}
	}
	// Wait for the sink's teardown so the frontend's VP stays accounted
	// until the job is over.
	if _, _, _, err := mt.Recv(lj.sinkOrig, tagServeDone); err != nil {
		lj.fail(err)
	}
}

// runWorker serves requests until teardown: charge the request's compute,
// then report to the sink with the arrival stamp echoed.
func (lj *LoadJob) runWorker(mt *mpvm.MTask) {
	for {
		_, tag, r, err := mt.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return // killed with its host, or torn down
		}
		if tag == tagServeDone {
			return
		}
		if tag != tagServeReq {
			continue
		}
		id, err := r.UpkInt()
		if err != nil {
			lj.fail(err)
			return
		}
		at, err := r.UpkInt()
		if err != nil {
			lj.fail(err)
			return
		}
		if _, err := r.UpkVirtual(); err != nil {
			lj.fail(err)
			return
		}
		if err := mt.Compute(lj.spec.ReqFlops); err != nil {
			return // Compute is migration-transparent; an error is a kill
		}
		reply := core.NewBuffer().PkInt(id).PkInt(at).PkVirtual(64)
		if err := mt.Send(lj.sinkOrig, tagServeReply, reply); err != nil {
			return
		}
	}
}

// runSink accounts every reply against the SLO and tears the job down once
// the whole schedule is served.
func (lj *LoadJob) runSink(mt *mpvm.MTask) {
	want := len(lj.schedule)
	for lj.Completed < want {
		_, _, r, err := mt.Recv(core.AnyTID, tagServeReply)
		if err != nil {
			lj.fail(err)
			return
		}
		if _, err := r.UpkInt(); err != nil {
			lj.fail(err)
			return
		}
		at, err := r.UpkInt()
		if err != nil {
			lj.fail(err)
			return
		}
		if _, err := r.UpkVirtual(); err != nil {
			lj.fail(err)
			return
		}
		lat := mt.Proc().Now() - sim.Time(at)
		lj.Latency.Add(lat.Seconds())
		if lat > lj.spec.SLO {
			lj.Violations++
		}
		lj.Completed++
	}
	lj.Done = true
	lj.FinishedAt = mt.Proc().Now()
	done := core.NewBuffer().PkInt(-1)
	for _, w := range lj.workerOrigs {
		if err := mt.Send(w, tagServeDone, done); err != nil {
			lj.fail(err)
		}
	}
	if err := mt.Send(lj.frontOrig, tagServeDone, done); err != nil {
		lj.fail(err)
	}
	if lj.OnFinish != nil {
		lj.OnFinish(lj)
	}
}

func (lj *LoadJob) fail(err error) {
	if lj.Err == nil {
		lj.Err = err
	}
}

// SLOReport condenses a latency series against an objective. Percentiles
// come from metrics.Series.Percentile (numpy-convention linear
// interpolation), so a report is reproducible from the raw series.
type SLOReport struct {
	N          int     `json:"n"`
	Violations int     `json:"violations"`
	SLOSecs    float64 `json:"slo_secs"`
	Mean       float64 `json:"mean"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
	Max        float64 `json:"max"`
}

// NewSLOReport builds the report for a latency series (seconds) against
// slo. Violations are recounted from the series, so the report is a pure
// function of (series, slo).
func NewSLOReport(lat *metrics.Series, slo sim.Time) SLOReport {
	rep := SLOReport{
		N:       lat.N(),
		SLOSecs: slo.Seconds(),
		Mean:    lat.Mean(),
		P50:     lat.Percentile(50),
		P95:     lat.Percentile(95),
		P99:     lat.Percentile(99),
		Max:     lat.Max(),
	}
	for _, v := range lat.Values() {
		if v > rep.SLOSecs {
			rep.Violations++
		}
	}
	return rep
}

// ServeScenario is one request-driven experiment: a serving job under the
// default GS (owner reclaim on), with an optional mid-run owner reclaim.
type ServeScenario struct {
	// Hosts is the workstation count (default 3).
	Hosts int
	// Load is the serving job (arrival schedule, workers, SLO). All
	// randomness lives in Load.Arrivals.Seed; the kernel keeps its default
	// schedule-order dispatch (interleaving exploration stays the chaos
	// package's job).
	Load LoadSpec
	// OwnerHost/OwnerAt, when OwnerAt > 0, flip the host's owner active
	// mid-run so the GS must evacuate its workers under load.
	OwnerHost int
	OwnerAt   sim.Time
	// Deadline caps virtual time (default: 10 minutes past the horizon).
	Deadline sim.Time
}

// ServingOutcome is what a serving experiment produced.
type ServingOutcome struct {
	// Latency is the per-request latency series, seconds.
	Latency *metrics.Series
	// Report is the SLO accounting over Latency.
	Report SLOReport
	// Completed counts served requests; Done means the full schedule.
	Completed int
	Done      bool
	// Elapsed is the sink's completion instant.
	Elapsed sim.Time
	// Decisions are the GS's orders; Records the resulting migrations.
	Decisions []gs.Decision
	Records   []core.MigrationRecord
	// Err is the first application error.
	Err error
}

// RunServing executes a request-driven scenario under MPVM + GS and
// returns the latency and migration measurements.
func RunServing(sc ServeScenario) *ServingOutcome {
	if sc.Hosts == 0 {
		sc.Hosts = 3
	}
	if sc.Deadline == 0 {
		sc.Deadline = sc.Load.Arrivals.Horizon + 10*time.Minute
	}
	k := sim.NewKernel()
	defer k.Close()
	cl := buildCluster(k, sc.Hosts, nil)
	m := pvm.NewMachine(cl, pvm.Config{})
	sys := mpvm.New(m, mpvm.Config{})
	target := gs.NewVPTarget(sys)
	sched := gs.NewFleet(cl, target, gs.DefaultFleetPolicy())
	out := &ServingOutcome{}

	lj, err := StartLoadJob(sys, sc.Load)
	if err != nil {
		out.Err = err
		return out
	}
	for _, orig := range lj.WorkerOrigs() {
		target.Track(orig)
	}
	lj.OnFinish = func(lj *LoadJob) {
		k.Schedule(2*time.Second, func() { k.Stop() })
	}
	sched.Start()
	if sc.OwnerAt > 0 {
		k.ScheduleAt(sc.OwnerAt, func() {
			cl.Host(netsim.HostID(sc.OwnerHost)).SetOwnerActive(true)
		})
	}
	k.RunUntil(sc.Deadline)

	out.Latency = lj.Latency
	out.Report = NewSLOReport(lj.Latency, lj.spec.SLO)
	out.Completed = lj.Completed
	out.Done = lj.Done
	out.Elapsed = lj.FinishedAt
	out.Decisions = sched.Decisions()
	out.Records = sys.Records()
	out.Err = lj.Err
	if !lj.Done && out.Err == nil {
		out.Err = fmt.Errorf("harness: serving job not finished by deadline %v (%d/%d served)",
			sc.Deadline, lj.Completed, lj.Requests())
	}
	return out
}
