package ft

import (
	"errors"
	"fmt"
	"math"

	"pvmigrate/internal/core"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/opt"
	"pvmigrate/internal/sim"
)

// Message tags of the fault-tolerant Opt protocol. Unlike plain Opt's tags
// (11–16), every payload here starts with (epoch, iteration): receivers
// drop traffic stamped with an epoch older than the manager's, which fences
// replies computed before a failure out of the rolled-back run.
const (
	tagShard  = 21 // master → slave: initial exemplar shard
	tagNet    = 22 // master → slave: current network, start an iteration
	tagGrad   = 23 // slave → master: partial gradient + partial loss
	tagCkpt   = 24 // master → slave: write your image to stable storage
	tagCkptOK = 25 // slave → master: image written
	tagDone   = 26 // master → slave: training finished
)

const masterKey = "ft:master"

func slaveKey(idx int) string { return fmt.Sprintf("ft:slave%d", idx) }

// JobSpec describes an FT-Opt run.
type JobSpec struct {
	// Opt is the training configuration (defaults as in package opt).
	Opt opt.Params
	// MasterHost places the master VP. Keep it on the checkpoint store's
	// host: losing it is unrecoverable (the paper's GS is a single point of
	// control in exactly the same way).
	MasterHost int
	// SlaveHosts places slave i on SlaveHosts[i]; its length sets the
	// slave count.
	SlaveHosts []int
	// OnFinish is called (in the master's proc context) when the job ends,
	// successfully or not — e.g. to stop the kernel.
	OnFinish func(*JobResult)
}

// JobResult is the job's outcome.
type JobResult struct {
	Result     *opt.Result
	Err        error
	Done       bool
	FinishedAt sim.Time
}

// Job is a running FT-Opt application: opt's master and slave cores — the
// training code every other system runs, so the trained network matches a
// fault-free run exactly — driven through epoch fencing, coordinated
// checkpoints, and rollback recovery. Nothing here computes a gradient or
// touches a weight.
type Job struct {
	mgr  *Manager
	spec JobSpec
	// master holds the training state; only the master VP touches it once
	// the job runs (StartJob sizes the VP images from it).
	master   *opt.Master
	netBytes int

	masterOrig core.TID
	slaveOrigs []core.TID

	out JobResult
}

// StartJob spawns the master and slaves as migratable tasks and registers
// the job with the manager. The caller runs the kernel.
func StartJob(mgr *Manager, spec JobSpec) (*Job, error) {
	if mgr.job != nil {
		return nil, errors.New("ft: manager already has a job")
	}
	if len(spec.SlaveHosts) == 0 {
		return nil, errors.New("ft: job needs at least one slave")
	}
	master, err := opt.NewMaster(spec.Opt, len(spec.SlaveHosts))
	if err != nil {
		return nil, err
	}
	j := &Job{mgr: mgr, spec: spec, master: master, netBytes: spec.Opt.Cost().NetBytes()}
	mgr.job = j

	for i, host := range spec.SlaveHosts {
		i := i
		mt, err := mgr.sys.SpawnMigratable(host, fmt.Sprintf("ft-slave%d", i),
			j.slaveStateBytes(i), func(mt *mpvm.MTask) { j.runSlave(mt, i, false) })
		if err != nil {
			return nil, err
		}
		j.slaveOrigs = append(j.slaveOrigs, mt.OrigTID())
		mgr.Track(mt.OrigTID())
	}
	mt, err := mgr.sys.SpawnMigratable(spec.MasterHost, "ft-master",
		j.masterStateBytes(), func(mt *mpvm.MTask) { j.runMaster(mt) })
	if err != nil {
		return nil, err
	}
	j.masterOrig = mt.OrigTID()
	mgr.Track(j.masterOrig)
	return j, nil
}

// Out returns the job outcome (valid once OnFinish has fired).
func (j *Job) Out() *JobResult { return &j.out }

// MasterOrig returns the master's stable tid.
func (j *Job) MasterOrig() core.TID { return j.masterOrig }

// SlaveOrigs returns the slaves' stable tids in shard order.
func (j *Job) SlaveOrigs() []core.TID { return append([]core.TID(nil), j.slaveOrigs...) }

func (j *Job) slaveStateBytes(i int) int { return j.master.ShardBytes(i) + j.netBytes }

func (j *Job) masterStateBytes() int {
	// Weights + CG memory + bookkeeping.
	return 3*j.netBytes + 64<<10
}

func (j *Job) ckptEvery() int { return j.mgr.cfg.CheckpointEvery }

// respawnSlave re-incarnates slave idx on host from its checkpointed shard.
func (j *Job) respawnSlave(idx, host int) error {
	_, err := j.mgr.sys.Respawn(j.slaveOrigs[idx], host,
		fmt.Sprintf("ft-slave%d'", idx), j.slaveStateBytes(idx),
		func(mt *mpvm.MTask) { j.runSlave(mt, idx, true) })
	return err
}

// --- slave ---------------------------------------------------------------------

// runSlave is the slave body, shared between the initial spawn (shard
// arrives by message) and a post-crash respawn (shard reloads from the
// checkpoint store). A slave's stable-storage image is its opt.Slave as
// checkpointed: the shard never changes after distribution and slaves are
// stateless request servers otherwise (weights arrive with every tagNet),
// so any committed slave image pairs correctly with any installed master
// image. That invariance is what lets the master's snapshot act as the
// commit point of the coordinated checkpoint (see masterRun.checkpoint).
func (j *Job) runSlave(mt *mpvm.MTask, idx int, fromCkpt bool) {
	var sl *opt.Slave
	if fromCkpt {
		snap, err := j.mgr.fetchSnapshot(mt, slaveKey(idx))
		if err != nil {
			return // killed again mid-reload, or no committed image
		}
		sl = snap.Payload.(*opt.Slave).Restart()
		mt.SetStateBytes(j.slaveStateBytes(idx))
		j.mgr.slaveReady(idx)
	} else {
		_, _, r, err := mt.Recv(j.masterOrig, tagShard)
		if err != nil {
			return
		}
		sl = opt.NewSlave(j.spec.Opt)
		if err := sl.LoadShard(r); err != nil {
			return
		}
		mt.SetStateBytes(j.slaveStateBytes(idx))
	}
	j.serveSlave(mt, idx, sl)
}

// readStamp unpacks the (epoch, iteration) pair that fences a reply or a
// checkpoint command against a rollback.
func readStamp(r *core.Reader) (epoch, iter int, err error) {
	if epoch, err = r.UpkInt(); err != nil {
		return 0, 0, err
	}
	iter, err = r.UpkInt()
	return epoch, iter, err
}

// serveSlave is the request loop: gradients on tagNet, stable-storage
// writes on tagCkpt, exit on tagDone. Slaves need no epoch filtering of
// their own — they are stateless per request — but they echo the master's
// (epoch, iter) stamp so the master can discard pre-failure replies.
func (j *Job) serveSlave(mt *mpvm.MTask, idx int, sl *opt.Slave) {
	for {
		_, tag, r, err := mt.Recv(j.masterOrig, core.AnyTag)
		if err != nil {
			return // killed, or torn down with the job
		}
		switch tag {
		case tagDone:
			return
		case tagNet:
			// The net broadcast travels behind the epoch; the iteration
			// number is the broadcast's own first item.
			epoch, err := r.UpkInt()
			if err != nil {
				return
			}
			iter, err := sl.LoadNet(r)
			if err != nil {
				return
			}
			buf := core.NewBuffer().PkInt(epoch).PkInt(iter)
			if err := sl.PackGradient(mt, buf); err != nil {
				return
			}
			if err := mt.Send(j.masterOrig, tagGrad, buf); err != nil {
				return
			}
		case tagCkpt:
			epoch, iter, err := readStamp(r)
			if err != nil {
				return
			}
			if err := j.mgr.saveSnapshot(mt, slaveKey(idx), iter,
				j.master.ShardBytes(idx), sl); err != nil {
				return
			}
			ok := core.NewBuffer().PkInt(epoch).PkInt(iter)
			if err := mt.Send(j.masterOrig, tagCkptOK, ok); err != nil {
				return
			}
		}
	}
}

// --- master --------------------------------------------------------------------

type masterRun struct {
	j  *Job
	mt *mpvm.MTask
}

func (j *Job) runMaster(mt *mpvm.MTask) {
	m := &masterRun{j: j, mt: mt}
	err := m.run()
	j.out.Err = err
	j.out.Done = err == nil
	j.out.FinishedAt = mt.Proc().Now()
	if err == nil {
		j.out.Result = j.master.Result()
		if len(j.out.Result.Losses) == 0 {
			j.out.Result.FinalLoss = math.NaN() // cost-model mode: no loss was computed
		}
	}
	if j.spec.OnFinish != nil {
		j.spec.OnFinish(&j.out)
	}
}

// run drives the job: distribute, take the initial checkpoint (so a
// recovery point exists before any crash can strike), then iterate with a
// checkpoint every CheckpointEvery iterations. Any rollback interrupt —
// at any blocking point: a recv, a flush wait, mid-disk-write — unwinds to
// this loop, which waits out the respawns, reloads the last installed
// master image, and resumes. A failure before the first master image
// installs is unrecoverable (the window is one flush + one small write).
func (m *masterRun) run() error {
	if err := m.distribute(); err != nil {
		if !recoverable(err) {
			return err
		}
		if err := m.rollback(); err != nil {
			return err
		}
	}
	for {
		err := m.work()
		if err == nil {
			return nil
		}
		if !recoverable(err) {
			return err
		}
		if err := m.rollback(); err != nil {
			return err
		}
	}
}

// work runs from the current iteration to completion: the initial
// checkpoint when none exists yet, the iteration loop, the final done
// broadcast.
func (m *masterRun) work() error {
	j := m.j
	if j.mgr.committed < 0 {
		if err := m.checkpoint(); err != nil {
			return err
		}
	}
	for !j.master.Done() {
		if err := m.oneIteration(); err != nil {
			return err
		}
		if j.master.Iter()%j.ckptEvery() == 0 || j.master.Done() {
			if err := m.checkpoint(); err != nil {
				return err
			}
		}
	}
	done := core.NewBuffer().PkInt(-1)
	for _, s := range j.slaveOrigs {
		if err := m.mt.Send(s, tagDone, done); err != nil {
			return err
		}
	}
	return nil
}

// distribute sends every slave its exemplar shard.
func (m *masterRun) distribute() error {
	for i, s := range m.j.slaveOrigs {
		if err := m.mt.Send(s, tagShard, m.j.master.PackShard(core.NewBuffer(), i)); err != nil {
			return err
		}
	}
	return nil
}

// oneIteration is opt.RunMaster's loop body — broadcast the net, absorb the
// partial gradients in fixed slave order, update — with the epoch stamped in
// front of the broadcast and (epoch, iter) in front of every reply, so that
// replies computed before a rollback are recognised and dropped.
func (m *masterRun) oneIteration() error {
	j := m.j
	epoch, iter := j.mgr.epoch, j.master.Iter()
	netBuf := j.master.PackNet(core.NewBuffer().PkInt(epoch))
	for _, s := range j.slaveOrigs {
		if err := m.mt.Send(s, tagNet, netBuf); err != nil {
			return err
		}
	}
	for _, s := range j.slaveOrigs {
		for {
			_, _, r, err := m.mt.Recv(s, tagGrad)
			if err != nil {
				return err
			}
			e, it, err := readStamp(r)
			if err != nil {
				return err
			}
			if e != epoch || it != iter {
				continue // stale reply computed before a rollback
			}
			if err := j.master.Absorb(r); err != nil {
				return err
			}
			j.mgr.noteApplied(e, it)
			break
		}
	}
	return j.master.Update(m.mt)
}

// checkpoint runs one coordinated round:
//
//  1. flush — mpvm.FlushAndHold quiesces all traffic toward the master
//     (MPVM's stage 2, reused verbatim: senders block, acks barrier);
//  2. master image → stable storage while held. Because slave images are
//     invariant (see runSlave), this install is the round's commit
//     point: recovery always resumes from the newest installed master
//     image, and an interrupt mid-write installs nothing (torn-write
//     guarantee);
//  3. release (MPVM's no-op restart broadcast unblocks senders), then
//     every slave writes its image and acknowledges;
//  4. the round closes for bookkeeping (Checkpoints, CommittedIteration).
//
// An interrupt anywhere unwinds with the hold released.
func (m *masterRun) checkpoint() error {
	j := m.j
	mgr := j.mgr
	iter := j.master.Iter()
	mgr.trace("ft-master", "ckpt:flush",
		fmt.Sprintf("iter %d: quiescing traffic around the master", iter))
	flushed := false
	flushCond := sim.NewCond(mgr.kernel())
	if err := mgr.sys.FlushAndHold(j.masterOrig, func() {
		flushed = true
		flushCond.Broadcast()
	}); err != nil {
		return err
	}
	held := true
	defer func() {
		if held {
			mgr.sys.Release(j.masterOrig)
		}
	}()
	for !flushed {
		if err := flushCond.Wait(m.mt.Proc()); err != nil {
			return err
		}
	}
	if err := mgr.saveSnapshot(m.mt, masterKey, iter, j.masterStateBytes(),
		j.master.Snapshot()); err != nil {
		return err
	}
	mgr.sys.Release(j.masterOrig)
	held = false

	epoch := mgr.epoch
	ck := core.NewBuffer().PkInt(epoch).PkInt(iter)
	for _, s := range j.slaveOrigs {
		if err := m.mt.Send(s, tagCkpt, ck); err != nil {
			return err
		}
	}
	for _, s := range j.slaveOrigs {
		for {
			_, _, r, err := m.mt.Recv(s, tagCkptOK)
			if err != nil {
				return err
			}
			e, it, err := readStamp(r)
			if err != nil {
				return err
			}
			if e == epoch && it == iter {
				break
			}
		}
	}
	mgr.committed = iter
	mgr.checkpoints++
	mgr.trace("ft-master", "ckpt:commit",
		fmt.Sprintf("iter %d: master + %d slave images stable", iter, len(j.slaveOrigs)))
	return nil
}

// rollback recovers from a host-dead interrupt: wait for every respawn to
// serve again, reload the newest installed master image, rewind. Further
// failures during recovery restart the wait-and-reload.
func (m *masterRun) rollback() error {
	mgr, master := m.j.mgr, m.j.master
	rolledFrom := master.Iter()
	mgr.trace("ft-master", "ft:rollback",
		fmt.Sprintf("interrupted at iter %d; waiting for respawns", rolledFrom))
	for {
		if err := mgr.waitRecovered(m.mt.Proc()); err != nil {
			return err
		}
		got, err := mgr.fetchSnapshot(m.mt, masterKey)
		if err == nil {
			if err := master.Restore(got.Payload.(*opt.MasterSnapshot)); err != nil {
				return err
			}
			mgr.noteResumed(master.Iter(), rolledFrom)
			return nil
		}
		if !recoverable(err) {
			return fmt.Errorf("ft: no recovery point: %w", err)
		}
		// failed again mid-reload
	}
}
