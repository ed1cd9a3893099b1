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

// slaveShard is a slave's stable-storage image: its exemplar shard. The
// shard never changes after distribution — slaves are stateless request
// servers otherwise (weights arrive with every tagNet) — so any committed
// slave image pairs correctly with any installed master image. That
// invariance is what lets the master's snapshot act as the commit point of
// the coordinated checkpoint (see masterRun.checkpoint).
type slaveShard struct {
	count int
	set   *opt.ExemplarSet // nil in cost-model mode
}

// masterSnapshot is the master's stable-storage image: everything needed to
// replay training bit-for-bit from iteration iter.
type masterSnapshot struct {
	iter     int
	step     float64
	prevLoss float64
	losses   []float64
	flat     []float64 // nil in cost-model mode
	trainer  opt.TrainerState
}

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

// Job is a running FT-Opt application: the same master/slave protocol as
// opt.RunMaster / opt.RunSlave (identical update math, so the trained
// network matches a fault-free run exactly), wrapped in epoch fencing,
// coordinated checkpoints, and rollback recovery.
type Job struct {
	mgr    *Manager
	spec   JobSpec
	p      opt.Params
	cost   opt.CostModel
	nEx    int
	counts []int

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
	p := spec.Opt.WithDefaults()
	j := &Job{mgr: mgr, spec: spec, p: p, cost: p.Cost(), nEx: p.NumExemplars()}
	j.counts = opt.EvenCounts(j.nEx, len(spec.SlaveHosts))
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

func (j *Job) slaveStateBytes(i int) int {
	return j.counts[i]*opt.ExemplarBytes(j.p.InputDim) + j.cost.NetBytes()
}

func (j *Job) masterStateBytes() int {
	// Weights + CG memory + bookkeeping.
	return 3*j.cost.NetBytes() + 64<<10
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
// checkpoint store).
func (j *Job) runSlave(mt *mpvm.MTask, idx int, fromCkpt bool) {
	p := j.p
	var count int
	var local *opt.ExemplarSet

	if fromCkpt {
		snap, err := j.mgr.fetchSnapshot(mt, slaveKey(idx))
		if err != nil {
			return // killed again mid-reload, or no committed image
		}
		sh := snap.Payload.(*slaveShard)
		count, local = sh.count, sh.set
		mt.SetStateBytes(j.slaveStateBytes(idx))
		j.mgr.slaveReady(idx)
	} else {
		_, _, r, err := mt.Recv(j.masterOrig, tagShard)
		if err != nil {
			return
		}
		if count, err = r.UpkInt(); err != nil {
			return
		}
		if _, err = r.UpkVirtual(); err != nil {
			return
		}
		if p.Real {
			feats, err := r.UpkFloat64s()
			if err != nil {
				return
			}
			flabels, err := r.UpkFloat64s()
			if err != nil {
				return
			}
			labels := make([]int, len(flabels))
			for i, f := range flabels {
				labels[i] = int(f)
			}
			local = opt.NewExemplarSet(p.InputDim, p.Classes, feats, labels)
		}
		mt.SetStateBytes(j.slaveStateBytes(idx))
	}
	j.serveSlave(mt, idx, count, local)
}

// serveSlave is the request loop: gradients on tagNet, stable-storage
// writes on tagCkpt, exit on tagDone. Slaves need no epoch filtering of
// their own — they are stateless per request — but they echo the master's
// (epoch, iter) stamp so the master can discard pre-failure replies.
func (j *Job) serveSlave(mt *mpvm.MTask, idx, count int, local *opt.ExemplarSet) {
	p, cost := j.p, j.cost
	net := &opt.Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes}
	for {
		_, tag, r, err := mt.Recv(j.masterOrig, core.AnyTag)
		if err != nil {
			return // killed, or torn down with the job
		}
		switch tag {
		case tagDone:
			return
		case tagNet:
			epoch, err := r.UpkInt()
			if err != nil {
				return
			}
			iter, err := r.UpkInt()
			if err != nil {
				return
			}
			if _, err := r.UpkVirtual(); err != nil {
				return
			}
			if p.Real {
				flat, err := r.UpkFloat64s()
				if err != nil {
					return
				}
				if net.W1 == nil {
					net.W1 = make([]float64, p.Hidden*p.InputDim)
					net.B1 = make([]float64, p.Hidden)
					net.W2 = make([]float64, p.Classes*p.Hidden)
					net.B2 = make([]float64, p.Classes)
				}
				if err := net.SetFlat(flat); err != nil {
					return
				}
			}
			if err := mt.Compute(cost.GradientFlops(count)); err != nil {
				return
			}
			buf := core.NewBuffer().PkInt(epoch).PkInt(iter)
			if p.Real {
				g := opt.NewGradient(net)
				net.AccumulateGradient(local, 0, local.Len(), g)
				pl := net.Loss(local) * float64(local.Len())
				buf.PkFloat64s([]float64{pl}).PkInt(g.Count)
				buf.PkFloat64s(g.W1).PkFloat64s(g.B1).PkFloat64s(g.W2).PkFloat64s(g.B2)
			} else {
				buf.PkFloat64s([]float64{0}).PkInt(count).PkVirtual(cost.NetBytes())
			}
			if err := mt.Send(j.masterOrig, tagGrad, buf); err != nil {
				return
			}
		case tagCkpt:
			epoch, err := r.UpkInt()
			if err != nil {
				return
			}
			iter, err := r.UpkInt()
			if err != nil {
				return
			}
			if err := j.mgr.saveSnapshot(mt, slaveKey(idx), iter,
				j.counts[idx]*opt.ExemplarBytes(p.InputDim),
				&slaveShard{count: count, set: local}); err != nil {
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

	set     *opt.ExemplarSet
	net     *opt.Net
	trainer *opt.CGTrainer

	iter     int
	step     float64
	prevLoss float64
	losses   []float64
}

func (j *Job) runMaster(mt *mpvm.MTask) {
	p := j.p
	m := &masterRun{j: j, mt: mt, step: p.Step}
	if p.Real {
		m.set = opt.GenerateExemplars(j.nEx, p.InputDim, p.Classes, p.Seed)
		m.net = opt.NewNet(p.InputDim, p.Hidden, p.Classes, p.Seed+1)
		m.trainer = opt.NewCGTrainer(m.net)
	}
	err := m.run()
	j.out.Err = err
	j.out.Done = err == nil
	j.out.FinishedAt = mt.Proc().Now()
	if err == nil {
		fl := math.NaN()
		if len(m.losses) > 0 {
			fl = m.losses[len(m.losses)-1]
		}
		j.out.Result = &opt.Result{Iterations: m.iter, FinalLoss: fl, Losses: m.losses}
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
	for m.iter < m.p().Iterations {
		if err := m.oneIteration(); err != nil {
			return err
		}
		m.iter++
		if m.iter%j.ckptEvery() == 0 || m.iter == m.p().Iterations {
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

func (m *masterRun) p() opt.Params { return m.j.p }

// distribute sends every slave its exemplar shard (identical layout to
// opt.RunMaster's).
func (m *masterRun) distribute() error {
	p := m.p()
	lo := 0
	for i, s := range m.j.slaveOrigs {
		n := m.j.counts[i]
		buf := core.NewBuffer().PkInt(n).PkVirtual(n * opt.ExemplarBytes(p.InputDim))
		if p.Real {
			shard := m.set.Slice(lo, lo+n)
			buf.PkFloat64s(shard.Features())
			labels := make([]float64, n)
			for k, l := range shard.Labels() {
				labels[k] = float64(l)
			}
			buf.PkFloat64s(labels)
		}
		if err := m.mt.Send(s, tagShard, buf); err != nil {
			return err
		}
		lo += n
	}
	return nil
}

// oneIteration mirrors opt.RunMaster's loop body exactly — broadcast the
// net, collect partial gradients in fixed slave order, CG direction,
// adaptive step — plus the epoch/iter stamp and stale-reply filtering.
func (m *masterRun) oneIteration() error {
	j, p, cost := m.j, m.p(), m.j.cost
	epoch := j.mgr.epoch
	netBuf := core.NewBuffer().PkInt(epoch).PkInt(m.iter).PkVirtual(cost.NetBytes())
	if p.Real {
		netBuf.PkFloat64s(m.net.Flat())
	}
	for _, s := range j.slaveOrigs {
		if err := m.mt.Send(s, tagNet, netBuf); err != nil {
			return err
		}
	}
	total := opt.NewGradient(&opt.Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes,
		W1: make([]float64, p.Hidden*p.InputDim), B1: make([]float64, p.Hidden),
		W2: make([]float64, p.Classes*p.Hidden), B2: make([]float64, p.Classes)})
	var lossSum float64
	for _, s := range j.slaveOrigs {
		for {
			_, _, r, err := m.mt.Recv(s, tagGrad)
			if err != nil {
				return err
			}
			e, err := r.UpkInt()
			if err != nil {
				return err
			}
			it, err := r.UpkInt()
			if err != nil {
				return err
			}
			if e != epoch || it != m.iter {
				continue // stale reply computed before a rollback
			}
			pl, cnt, g, err := opt.UnpackGradient(r, p)
			if err != nil {
				return err
			}
			j.mgr.noteApplied(e, it)
			lossSum += pl
			if p.Real {
				total.Add(g)
			} else {
				total.Count += cnt
			}
			break
		}
	}
	if err := m.mt.Compute(cost.UpdateFlops(len(j.slaveOrigs))); err != nil {
		return err
	}
	if p.Real {
		meanLoss := lossSum / float64(j.nEx)
		m.losses = append(m.losses, meanLoss)
		grad := total.Flat()
		dir := m.trainer.Direction(grad)
		if m.iter > 0 && meanLoss > m.prevLoss {
			m.step *= 0.5
		}
		m.prevLoss = meanLoss
		flat := m.net.Flat()
		for i := range flat {
			flat[i] += m.step * dir[i]
		}
		if err := m.net.SetFlat(flat); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint runs one coordinated round:
//
//  1. flush — mpvm.FlushAndHold quiesces all traffic toward the master
//     (MPVM's stage 2, reused verbatim: senders block, acks barrier);
//  2. master image → stable storage while held. Because slave images are
//     invariant (see slaveShard), this install is the round's commit
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
	mgr.trace("ft-master", "ckpt:flush",
		fmt.Sprintf("iter %d: quiescing traffic around the master", m.iter))
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
	if err := mgr.saveSnapshot(m.mt, masterKey, m.iter, j.masterStateBytes(),
		m.capture()); err != nil {
		return err
	}
	mgr.sys.Release(j.masterOrig)
	held = false

	epoch := mgr.epoch
	ck := core.NewBuffer().PkInt(epoch).PkInt(m.iter)
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
			e, err := r.UpkInt()
			if err != nil {
				return err
			}
			it, err := r.UpkInt()
			if err != nil {
				return err
			}
			if e == epoch && it == m.iter {
				break
			}
		}
	}
	mgr.committed = m.iter
	mgr.checkpoints++
	mgr.trace("ft-master", "ckpt:commit",
		fmt.Sprintf("iter %d: master + %d slave images stable", m.iter, len(j.slaveOrigs)))
	return nil
}

// capture deep-copies the master's training state.
func (m *masterRun) capture() *masterSnapshot {
	s := &masterSnapshot{
		iter:     m.iter,
		step:     m.step,
		prevLoss: m.prevLoss,
		losses:   append([]float64(nil), m.losses...),
	}
	if m.p().Real {
		s.flat = m.net.Flat()
		s.trainer = m.trainer.Snapshot()
	}
	return s
}

// rollback recovers from a host-dead interrupt: wait for every respawn to
// serve again, reload the newest installed master image, rewind. Further
// failures during recovery restart the wait-and-reload.
func (m *masterRun) rollback() error {
	mgr := m.j.mgr
	rolledFrom := m.iter
	mgr.trace("ft-master", "ft:rollback",
		fmt.Sprintf("interrupted at iter %d; waiting for respawns", rolledFrom))
	var snap *masterSnapshot
	for {
		if err := mgr.waitRecovered(m.mt.Proc()); err != nil {
			return err
		}
		got, err := mgr.fetchSnapshot(m.mt, masterKey)
		if err == nil {
			snap = got.Payload.(*masterSnapshot)
			break
		}
		if recoverable(err) {
			continue // failed again mid-reload
		}
		return fmt.Errorf("ft: no recovery point: %w", err)
	}
	m.iter = snap.iter
	m.step = snap.step
	m.prevLoss = snap.prevLoss
	m.losses = append([]float64(nil), snap.losses...)
	if m.p().Real {
		if err := m.net.SetFlat(append([]float64(nil), snap.flat...)); err != nil {
			return err
		}
		m.trainer.Restore(snap.trainer)
	}
	mgr.noteResumed(m.iter, rolledFrom)
	return nil
}
