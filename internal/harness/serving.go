package harness

import (
	"fmt"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/metrics"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/sim"
)

// serving.go is the request-driven job, which serve.Core runs as its "load"
// kind: instead of one batch Opt job, the cluster runs a long-lived serving
// application — an open-loop frontend replaying an ArrivalSpec schedule, a
// pool of migratable worker VPs, and a sink accounting per-request latency
// against an SLO — while the GS migrates workers underneath it (owner
// reclaims, load chasing). This is the surface on which the paper's
// migration policies meet "heavy traffic" instead of batch iterations.

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
		return nil, errs.Newf(CodeBadScenario, "serving job has an empty arrival schedule")
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
		id, at := r.UpkInt(), r.UpkInt()
		r.UpkVirtual() // the request body
		if err := r.Err(); err != nil {
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
		r.UpkInt() // the request id
		at := r.UpkInt()
		r.UpkVirtual() // the reply body
		if err := r.Err(); err != nil {
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
