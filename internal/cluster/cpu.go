package cluster

import (
	"math"
	"slices"

	"pvmigrate/internal/sim"
)

// CPU models a workstation processor under Unix-style timesharing as an
// egalitarian processor-sharing server: when n compute jobs are runnable,
// each progresses at rate speed/n. This captures the phenomenon the paper
// is built around — a parallel application slows down when it shares a
// workstation with other load — without simulating an actual scheduler
// quantum by quantum.
//
// Work is measured in abstract "work units"; the Opt application uses
// floating-point operations, with speed in FLOP/s.
type CPU struct {
	k     *sim.Kernel
	host  *Host   // notified of every run-queue length change; nil for a bare NewCPU
	speed float64 // work units per second
	// jobs holds the runnable jobs in admission order. Every walk below is
	// in that order, so jobs finishing at one instant wake in the order
	// they were admitted and totalDone sums in the same order on every run.
	jobs       []*cpuJob
	free       []*cpuJob // finished Compute jobs, recycled by newJob
	onComplete func()    // c.onCompletion, bound once
	lastUpdate sim.Time
	completion sim.Timer

	totalDone float64 // completed work units, for utilization probes
}

type cpuJob struct {
	remaining float64 // math.Inf(1) for pure load jobs
	done      bool
	doneCond  sim.Cond // unused by load jobs
}

// LoadHandle identifies a background load job added with AddLoad.
type LoadHandle struct {
	cpu *CPU
	job *cpuJob
}

// NewCPU creates a processor with the given speed in work units per second.
// A CPU built here belongs to no host, so its run-queue changes reach no
// Cluster.Watch.
func NewCPU(k *sim.Kernel, speed float64) *CPU {
	if speed <= 0 {
		panic("cluster: CPU speed must be positive")
	}
	c := &CPU{k: k, speed: speed}
	c.onComplete = c.onCompletion
	return c
}

// Speed returns the processor's un-shared rate.
func (c *CPU) Speed() float64 { return c.speed }

// ActiveJobs returns the number of currently runnable compute jobs
// (including background load). This is the quantity a load daemon would
// report as the run-queue length.
func (c *CPU) ActiveJobs() int { return len(c.jobs) }

// WorkDone returns cumulative completed work units.
func (c *CPU) WorkDone() float64 { return c.totalDone }

// newJob returns a runnable job of the given size, recycled when one is
// free. The caller admits it by appending to c.jobs.
func (c *CPU) newJob(work float64) *cpuJob {
	var j *cpuJob
	if n := len(c.free); n > 0 {
		j = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		j = new(cpuJob) // lint:alloc free-list miss: one job per concurrently computing proc, then recycled
	}
	j.remaining, j.done = work, false
	j.doneCond.Init(c.k)
	return j
}

// withdraw takes j out of the run queue, keeping the others in admission
// order. A job that already completed is no longer queued; that is a no-op.
func (c *CPU) withdraw(j *cpuJob) {
	if i := slices.Index(c.jobs, j); i >= 0 {
		c.jobs = slices.Delete(c.jobs, i, i+1)
		c.runqChanged()
	}
}

// runqChanged tells the host's watchers that ActiveJobs moved.
func (c *CPU) runqChanged() {
	if c.host != nil {
		c.host.notify(RunqChanged)
	}
}

// advance credits progress to all active jobs for the time elapsed since
// the last update.
func (c *CPU) advance() {
	now := c.k.Now()
	if now <= c.lastUpdate || len(c.jobs) == 0 {
		c.lastUpdate = now
		return
	}
	elapsed := sim.Seconds(now - c.lastUpdate)
	rate := c.speed / float64(len(c.jobs))
	credit := elapsed * rate
	for _, j := range c.jobs {
		if credit >= j.remaining {
			c.totalDone += j.remaining
			j.remaining = 0
		} else {
			c.totalDone += credit // load jobs (remaining +Inf) always land here
			j.remaining -= credit
		}
	}
	c.lastUpdate = now
}

// reschedule cancels any pending completion event and schedules one for the
// earliest-finishing job under the current sharing level.
func (c *CPU) reschedule() {
	c.completion.Cancel()
	c.completion = sim.Timer{}
	minRemaining := math.Inf(1)
	for _, j := range c.jobs {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	if math.IsInf(minRemaining, 1) {
		return // only load jobs: they never finish
	}
	c.completion = c.k.Schedule(c.eta(minRemaining), c.onComplete)
}

// eta is how long a job with remaining work takes under the current sharing
// level, rounded *up* to whole nanoseconds (plus a 1 ns guard): rounding
// down could schedule a completion event at the current instant that makes
// zero progress and re-arms itself forever.
func (c *CPU) eta(remaining float64) sim.Time {
	return sim.Time(math.Ceil(remaining * float64(len(c.jobs)) / c.speed * 1e9))
}

func (c *CPU) onCompletion() {
	c.advance()
	const eps = 1e-9
	// Several jobs can finish at the same instant; compacting the queue in
	// place wakes them in admission order.
	live := 0
	for _, j := range c.jobs {
		if j.remaining > eps { // load jobs stay +Inf
			c.jobs[live] = j
			live++
			continue
		}
		j.remaining = 0
		j.done = true
		j.doneCond.Broadcast()
	}
	finished := live < len(c.jobs)
	clear(c.jobs[live:])
	c.jobs = c.jobs[:live]
	c.completion = sim.Timer{}
	c.reschedule()
	if finished {
		c.runqChanged()
	}
}

// Compute executes work units on the processor, blocking the calling proc
// until the work completes under processor sharing. If the proc is
// interrupted (e.g. by a migration signal) the call returns the unfinished
// work remaining and the interrupt error; callers can resume by calling
// Compute again with the remainder.
//
// A job that is the only finite one on the CPU reserves its completion's
// place before the run-queue watchers hear of it, and then waits with
// Cond.WaitSlot: when the completion is provably the next event, the proc
// runs onCompletion itself instead of through the queue.
func (c *CPU) Compute(p *sim.Proc, work float64) (remaining float64, err error) {
	if work <= 0 {
		return 0, nil
	}
	c.advance()
	j := c.newJob(work)
	sole := c.completion == (sim.Timer{}) // a completion is pending while any finite job runs
	c.jobs = append(c.jobs, j)
	var s sim.Slot
	if sole {
		s = c.k.Reserve(c.k.Now() + c.eta(work))
	} else {
		c.reschedule()
	}
	c.runqChanged()
	// A watcher that rescheduled the CPU (an AddLoad) queued the completion
	// itself; the reservation is dropped, as the queued completion it
	// stands for would have been canceled.
	if sole && c.completion == (sim.Timer{}) {
		var took bool
		if took, err = j.doneCond.WaitSlot(p, s, c.onComplete); !took {
			c.completion = c.k.ScheduleSlot(s, c.onComplete)
		}
	}
	for !j.done && err == nil {
		err = j.doneCond.Wait(p)
	}
	if err != nil {
		// Migration signal or similar: withdraw the unfinished job.
		c.advance()
		c.withdraw(j)
		c.reschedule()
		remaining = j.remaining
	}
	// Only this proc ever waited on j, and it is past its last look at it.
	c.free = append(c.free, j)
	return remaining, err
}

// AddLoad adds one background compute job that never finishes, degrading
// the rate available to application jobs. It returns a handle for removal.
func (c *CPU) AddLoad() *LoadHandle {
	c.advance()
	j := &cpuJob{remaining: math.Inf(1)}
	c.jobs = append(c.jobs, j)
	c.reschedule()
	c.runqChanged()
	return &LoadHandle{cpu: c, job: j}
}

// Remove withdraws the background load job. Removing twice is a no-op.
func (h *LoadHandle) Remove() {
	if h.job == nil {
		return
	}
	h.cpu.advance()
	h.cpu.withdraw(h.job)
	h.job = nil
	h.cpu.reschedule()
}
