// Package checkpoint implements the alternative eviction policy the paper
// contrasts MPVM against in §5.0: Condor-style periodic checkpointing.
//
// "It advocates checkpoint-based process migration both for unobtrusiveness
// and fault tolerance, which has some advantages and some disadvantages
// compared to the 'migrate current state' policy we have chosen for MPVM
// and UPVM. While the checkpoint approach makes migration less obtrusive,
// there is a cost of taking periodic checkpoints, and there is a file I/O
// 'idempotency' restriction..."
//
// The package runs both policies on an identical long-running compute job
// over the same simulated substrate, so the trade-off can be measured:
//
//   - checkpointing: the job freezes every Interval to write its state to
//     local disk; on eviction it is killed at once (tiny obtrusiveness),
//     its last checkpoint is shipped to the destination, and the work since
//     that checkpoint is *recomputed* (the lost-work cost);
//   - migrate-current-state (the MPVM policy): on eviction the job's live
//     state is transferred (obtrusiveness grows with state size), and no
//     work is ever lost.
package checkpoint

import (
	"fmt"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// Params describes the policy run.
type Params struct {
	// Interval is the checkpoint period (checkpoint policy only).
	Interval sim.Time
}

const (
	// killCost is SIGKILL delivery + process reaping.
	killCost sim.Time = 60 * time.Millisecond
	// restartCost is exec + re-enroll on the destination.
	restartCost sim.Time = 400 * time.Millisecond
	// jobStateBytes is the compared job's process image (data+heap+stack).
	jobStateBytes int = 4 << 20
	// jobWorkFlops is the job's total computation: 300 s on the calibrated
	// 9 Mflop/s CPU.
	jobWorkFlops float64 = 9e6 * 300
)

func (p Params) withDefaults() Params {
	if p.Interval == 0 {
		p.Interval = time.Minute
	}
	return p
}

// Result reports what one policy run measured.
type Result struct {
	// Completion is when the job's full work finished.
	Completion sim.Time
	// Obtrusiveness is eviction → source host free.
	Obtrusiveness sim.Time
	// Resumed is eviction → job computing again on the destination
	// (for checkpointing this is *before* the lost work is recovered).
	Resumed sim.Time
	// LostWorkFlops is computation that had to be redone.
	LostWorkFlops float64
	// CheckpointTime is the total time the job spent frozen writing
	// checkpoints.
	CheckpointTime sim.Time
	// Checkpoints is how many checkpoints were written.
	Checkpoints int
}

type env struct {
	k   *sim.Kernel
	cl  *cluster.Cluster
	src *cluster.Host
	dst *cluster.Host
}

// newEnv is built by hand, not by harness.NewWorld: harness imports this
// package, and the testbed is two bare hosts with no PVM on them.
func newEnv() env {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("src"),
		cluster.DefaultHostSpec("dst"))
	return env{k: k, cl: cl, src: cl.Host(0), dst: cl.Host(1)}
}

// transferTime ships n bytes over the shared Ethernet with sender pacing
// and returns when the transfer is complete.
func transfer(p *sim.Proc, e env, from, to *cluster.Host, n int) error {
	port := 7000 + p.ID()
	l, err := to.Iface().Listen(port)
	if err != nil {
		return err
	}
	done := sim.NewCond(e.k)
	finished := false
	e.k.Spawn("sink", func(sp *sim.Proc) {
		conn, err := l.Accept(sp)
		l.Close()
		if err != nil {
			return
		}
		if _, err := conn.Recv(sp); err == nil {
			finished = true
			done.Broadcast()
		}
	})
	conn, err := from.Iface().Dial(p, to.ID(), port)
	if err != nil {
		return err
	}
	if err := conn.Send(p, n, nil); err != nil {
		return err
	}
	for !finished {
		if err := done.Wait(p); err != nil {
			return err
		}
	}
	conn.Close()
	return nil
}

type evictSignal struct{}

// RunCheckpointed executes the job under the periodic-checkpoint policy,
// evicting it from the source host at evictAt.
func RunCheckpointed(p Params, evictAt sim.Time) (Result, error) {
	p = p.withDefaults()
	e := newEnv()
	defer e.k.Close()
	res := Result{}
	store := NewStore(e.k)
	ckptCost := store.IOTime(jobStateBytes)
	const key = "job"
	// The initial image (progress 0) is on disk before the job starts, so a
	// pre-first-checkpoint eviction restarts from scratch after a full read.
	store.Seed(key, 0, jobStateBytes, 0.0)

	var runErr error
	job := e.k.Spawn("job", func(pr *sim.Proc) {
		done := 0.0 // work completed at the current execution point
		host := e.src

		// recover runs the eviction path: kill, ship the last checkpoint,
		// restart from it on the destination.
		recover := func(progressAtEviction float64) bool {
			done = progressAtEviction
			if err := pr.Sleep(killCost); err != nil {
				runErr = err
				return false
			}
			res.Obtrusiveness = pr.Now() - evictAt
			if err := transfer(pr, e, e.src, e.dst, jobStateBytes); err != nil {
				runErr = err
				return false
			}
			if err := pr.Sleep(restartCost); err != nil {
				runErr = err
				return false
			}
			snap, err := store.Read(pr, key) // read the checkpoint
			if err != nil {
				runErr = err
				return false
			}
			ckptDone := snap.Payload.(float64)
			res.Resumed = pr.Now() - evictAt
			res.LostWorkFlops = done - ckptDone
			done = ckptDone
			host = e.dst
			return true
		}

		for done < jobWorkFlops {
			sliceFlops := sim.Seconds(p.Interval) * host.CPU().Speed()
			if sliceFlops > jobWorkFlops-done {
				sliceFlops = jobWorkFlops - done
			}
			rem, err := host.CPU().Compute(pr, sliceFlops)
			if err != nil {
				if _, ok := sim.IsInterrupted(err); !ok {
					runErr = err
					return
				}
				if !recover(done + sliceFlops - rem) {
					return
				}
				continue
			}
			done += sliceFlops
			if done >= jobWorkFlops {
				break
			}
			// Freeze and write the checkpoint. An interrupted write commits
			// nothing (the store's torn-write guarantee), so recovery falls
			// back to the previous image.
			if err := store.Write(pr, key, res.Checkpoints+1, jobStateBytes, done); err != nil {
				if _, ok := sim.IsInterrupted(err); !ok {
					runErr = err
					return
				}
				if !recover(done) { // evicted mid-checkpoint: it is invalid
					return
				}
				continue
			}
			res.CheckpointTime += ckptCost
			res.Checkpoints++
		}
		res.Completion = pr.Now()
	})
	e.k.Schedule(evictAt, func() {
		e.src.SetOwnerActive(true)
		job.Interrupt(evictSignal{})
	})
	e.k.Run()
	if runErr != nil {
		return res, runErr
	}
	if res.Completion == 0 {
		return res, fmt.Errorf("checkpoint: job never completed")
	}
	return res, nil
}

// RunMigrateCurrent executes the job under the MPVM policy on the same
// substrate: on eviction the live state transfers and computation resumes
// exactly where it stopped. No checkpoint period applies.
func RunMigrateCurrent(evictAt sim.Time) (Result, error) {
	e := newEnv()
	defer e.k.Close()
	res := Result{}

	var runErr error
	job := e.k.Spawn("job", func(pr *sim.Proc) {
		remaining := jobWorkFlops
		host := e.src
		for remaining > 0 {
			rem, err := host.CPU().Compute(pr, remaining)
			if err == nil {
				break
			}
			if _, ok := sim.IsInterrupted(err); !ok {
				runErr = err
				return
			}
			remaining = rem
			// Live-state transfer (flush is trivial for a lone process).
			if terr := transfer(pr, e, e.src, e.dst, jobStateBytes); terr != nil {
				runErr = terr
				return
			}
			res.Obtrusiveness = pr.Now() - evictAt
			if serr := pr.Sleep(restartCost); serr != nil {
				runErr = serr
				return
			}
			res.Resumed = pr.Now() - evictAt
			host = e.dst
		}
		res.Completion = pr.Now()
	})
	e.k.Schedule(evictAt, func() {
		e.src.SetOwnerActive(true)
		job.Interrupt(evictSignal{})
	})
	e.k.Run()
	if runErr != nil {
		return res, runErr
	}
	if res.Completion == 0 {
		return res, fmt.Errorf("checkpoint: job never completed")
	}
	return res, nil
}
