package ft

import (
	"fmt"

	"pvmigrate/internal/checkpoint"
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
)

// rollbackSignal interrupts the FT master when the GS declares a host dead:
// whatever the master is blocked on (a gradient from a now-dead slave, a
// flush ack, a disk write) unwinds, and the master rolls back to the last
// installed checkpoint once the lost slaves are respawned. The epoch fences
// stale protocol traffic from before the failure.
type rollbackSignal struct{ Epoch int }

// RecoveryRecord measures one host-loss recovery end to end.
type RecoveryRecord struct {
	Host int
	// CrashedAt is the injection time (detection time when the crash did
	// not come from an ft.Injector).
	CrashedAt sim.Time
	// DetectedAt is when the GS declared the host dead.
	DetectedAt sim.Time
	// RecoveredAt is when the master resumed computing from the rollback
	// point with all respawned slaves serving.
	RecoveredAt sim.Time
	// RespawnedVPs counts the job VPs lost with the host.
	RespawnedVPs int
	// LostIterations is the training work rolled back: the iteration the
	// master had reached minus the iteration it resumed from. Bounded by
	// Config.CheckpointEvery.
	LostIterations int
}

// Manager is the recovery coordinator: a gs.Target (the embedded VP target,
// so load-balancing and owner-reclaim migration keep working, and Track and
// Index come with it) that additionally implements gs.FailureTarget and
// gs.RejoinTarget. It owns the stable checkpoint store and the running FT
// job.
type Manager struct {
	*gs.VPTarget[core.TID]
	cfg   Config
	sys   *mpvm.System
	store *checkpoint.Store
	log   *trace.Log

	job *Job

	// epoch increments on every host-dead declaration; protocol messages
	// from older epochs are stale and dropped by their receivers.
	epoch int
	// committed is the iteration of the last fully-closed checkpoint round
	// (-1 before the first).
	committed   int
	checkpoints int

	// pending maps slave index → respawn in flight; recovered broadcasts
	// when it drains.
	pending   map[int]bool
	recovered *sim.Cond

	records []RecoveryRecord
	crashAt map[int]sim.Time

	// applied logs every protocol reply the master accepted into training
	// state, in application order — the observable trail the chaos epoch-
	// monotonicity checker audits.
	applied []AppliedStamp
}

// AppliedStamp is one accepted reply's fence stamp.
type AppliedStamp struct {
	Epoch int
	Iter  int
	At    sim.Time
}

// NewManager creates a recovery manager over the MPVM system; log may be
// nil.
func NewManager(sys *mpvm.System, cfg Config, log *trace.Log) *Manager {
	k := sys.Machine().Kernel()
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2
	}
	return &Manager{
		VPTarget:  gs.NewVPTarget(sys),
		cfg:       cfg,
		sys:       sys,
		store:     checkpoint.NewStore(k),
		log:       log,
		committed: -1,
		pending:   make(map[int]bool),
		recovered: sim.NewCond(k),
		crashAt:   make(map[int]sim.Time),
	}
}

// Store returns the stable checkpoint store.
func (mgr *Manager) Store() *checkpoint.Store { return mgr.store }

// Records returns the recovery measurements so far.
func (mgr *Manager) Records() []RecoveryRecord { return mgr.records }

// AppliedStamps returns the fence stamps of every reply the master applied,
// in application order.
func (mgr *Manager) AppliedStamps() []AppliedStamp { return mgr.applied }

// noteApplied records that the master accepted a reply stamped (epoch, iter)
// into training state. Replies the fences rejected never reach here.
func (mgr *Manager) noteApplied(epoch, iter int) {
	mgr.applied = append(mgr.applied, AppliedStamp{Epoch: epoch, Iter: iter, At: mgr.kernel().Now()})
}

// Checkpoints returns how many coordinated checkpoint rounds fully closed.
func (mgr *Manager) Checkpoints() int { return mgr.checkpoints }

// CommittedIteration returns the iteration of the last closed round (-1
// before the first).
func (mgr *Manager) CommittedIteration() int { return mgr.committed }

// LostWork is the run time the recoveries so far rolled back, summed: for
// each, the crash instant minus when the master image it resumed from was
// written. That image is the newest one committed before the GS declared the
// host dead, since the declaration interrupts the master and a write it cuts
// off commits nothing. An image written after the crash (its round closed
// inside the detection window) lost nothing.
func (mgr *Manager) LostWork() sim.Time {
	var lost sim.Time
	for _, r := range mgr.records {
		from := sim.Time(-1)
		for _, s := range mgr.store.Commits() {
			if s.WrittenAt > r.DetectedAt {
				break
			}
			if s.Key == masterKey {
				from = s.WrittenAt
			}
		}
		if from >= 0 && r.CrashedAt > from {
			lost += r.CrashedAt - from
		}
	}
	return lost
}

// ObserveFault is the Injector OnFault callback NewStack registers: it
// records a crash's true time, for recovery-latency measurement.
func (mgr *Manager) ObserveFault(f Fault) {
	if f.Kind == HostCrash {
		mgr.crashAt[f.Host] = mgr.kernel().Now()
	}
}

// --- failure handling ----------------------------------------------------------

// HostDead implements gs.FailureTarget: the GS declared a host lost. The
// manager bumps the epoch, interrupts the master for rollback, and respawns
// every job VP that died with the host from the checkpoint store. Runs in
// kernel context.
func (mgr *Manager) HostDead(host int) (int, error) {
	// The silent host's mpvmd will never acknowledge anything again (crashed
	// or partitioned makes no difference to a waiting barrier): write it off
	// from every in-flight flush so checkpoints and migrations can't hang on
	// it.
	mgr.sys.NoteHostUnreachable(host)
	j := mgr.job
	if j == nil {
		return 0, nil
	}
	now := mgr.kernel().Now()
	mmt := mgr.sys.Task(j.masterOrig)
	if mmt != nil && int(mmt.Host().ID()) == host && !j.out.Done {
		return 0, errs.Newf(CodeMasterLost, "master host %d lost; job unrecoverable", host)
	}
	// Once the master's body has returned there is no in-flight computation
	// to recover: a slave found on the dead host exited with the job (or is
	// about to, on a queued done message), and a respawn now would reload a
	// shard and wait forever on a master that will never speak again.
	if j.out.Done || (mmt != nil && mmt.Exited()) {
		return 0, nil
	}
	// Which job VPs were lost with the host? A crashed host's tasks stay
	// registered at it with Exited set. A *partitioned* host's tasks are
	// still running — silently, unreachably — so a live task found on the
	// dead host is fenced off as an orphan (reaped if the host rejoins) and
	// replaced just like a dead one. A task merely *migrated away* earlier
	// is alive elsewhere and does not match.
	var lost []int
	for i, orig := range j.slaveOrigs {
		mt := mgr.sys.Task(orig)
		if mt == nil || int(mt.Host().ID()) != host {
			continue
		}
		if !mt.Exited() {
			mgr.sys.OrphanTask(orig)
			mgr.trace("GS", "ft:orphan",
				fmt.Sprintf("slave%d still running on silent host%d; fenced for respawn", i, host))
		}
		lost = append(lost, i)
	}
	if len(lost) == 0 {
		return 0, nil
	}
	mgr.epoch++
	rec := RecoveryRecord{Host: host, CrashedAt: mgr.crashAt[host], DetectedAt: now,
		RespawnedVPs: len(lost)}
	if rec.CrashedAt == 0 || rec.CrashedAt > now {
		rec.CrashedAt = now
	}
	mgr.records = append(mgr.records, rec)
	mgr.trace("GS", "ft:host-dead",
		fmt.Sprintf("host%d lost %d VPs; epoch %d, rolling back to iter %d",
			host, len(lost), mgr.epoch, mgr.committed))
	// Unblock the master from whatever a dead peer will never complete.
	if mmt := mgr.sys.Task(j.masterOrig); mmt != nil && !mmt.Exited() {
		mmt.Proc().Interrupt(rollbackSignal{Epoch: mgr.epoch})
	}
	for _, idx := range lost {
		mgr.pending[idx] = true
	}
	// A respawn reloads its shard from the store: data moves, not an image,
	// so any host that Receives will do.
	dests := mgr.Index().Place(host, len(lost),
		gs.Receivers(mgr.sys.Machine().Cluster().Host(netsim.HostID(host)), false))
	var firstErr error
	respawned := 0
	for i, idx := range lost {
		if i >= len(dests) {
			if firstErr == nil {
				firstErr = errs.Newf(gs.CodeNoDestination, "no live host for slave %d", idx).
					AddContext("from", host)
			}
			delete(mgr.pending, idx)
			continue
		}
		if err := j.respawnSlave(idx, dests[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			delete(mgr.pending, idx)
			continue
		}
		respawned++
	}
	if len(mgr.pending) == 0 {
		mgr.recovered.Broadcast()
	}
	return respawned, firstErr
}

// HostRejoined implements gs.RejoinTarget: a declared-dead host's beats
// resumed (revival or healed partition). Orphan incarnations fenced while
// the host was silent are reaped first — a split-brain survivor must not
// compute alongside its respawned replacement — then the host automatically
// becomes a placement candidate again; nothing moves back proactively and
// nothing is respawned.
func (mgr *Manager) HostRejoined(host int) {
	mgr.sys.NoteHostReachable(host)
	if n := mgr.sys.ReapOrphans(host); n > 0 {
		mgr.trace("GS", "ft:host-rejoin",
			fmt.Sprintf("host%d beating again; %d orphan VPs reaped", host, n))
		return
	}
	mgr.trace("GS", "ft:host-rejoin", fmt.Sprintf("host%d beating again", host))
}

// slaveReady marks a respawned slave as serving again (called from the
// slave's own proc once its shard is reloaded).
func (mgr *Manager) slaveReady(idx int) {
	if !mgr.pending[idx] {
		return
	}
	delete(mgr.pending, idx)
	mgr.trace(fmt.Sprintf("ft-slave%d", idx), "ft:respawn-ready", "shard reloaded; serving")
	if len(mgr.pending) == 0 {
		mgr.recovered.Broadcast()
	}
}

// waitRecovered blocks the master until every pending respawn is serving.
// Rollback interrupts arriving *during* the wait (a second failure while
// recovering from the first) are absorbed: the wait simply continues until
// the combined respawn set drains.
func (mgr *Manager) waitRecovered(p *sim.Proc) error {
	for len(mgr.pending) > 0 {
		if err := mgr.recovered.Wait(p); err != nil {
			if ie, ok := sim.IsInterrupted(err); ok {
				if _, rb := ie.Reason.(rollbackSignal); rb {
					continue
				}
			}
			return err
		}
	}
	return nil
}

// noteResumed closes every open recovery record: the master is computing
// again from resumeIter after being rolled back from rolledFrom.
func (mgr *Manager) noteResumed(resumeIter, rolledFrom int) {
	now := mgr.kernel().Now()
	for i := range mgr.records {
		r := &mgr.records[i]
		if r.RecoveredAt == 0 {
			r.RecoveredAt = now
			r.LostIterations = rolledFrom - resumeIter
		}
	}
	mgr.trace("ft-master", "ft:recovered",
		fmt.Sprintf("resumed at iter %d (rolled back from %d)", resumeIter, rolledFrom))
}

// --- checkpoint store access ----------------------------------------------------

// saveSnapshot ships an image from the calling VP's host to the store host
// (frame-paced over the shared wire; a loopback copy when co-located) and
// writes it to stable storage. Both costs are charged to the calling proc;
// a rollback or kill at any point installs nothing. A *migrate* signal does
// not abort the write: the disk sleeps run through MTask.SleepUntil, so a
// slave can be evacuated mid-checkpoint and its image still lands — the
// store's two-phase write keeps the torn-write guarantee either way.
func (mgr *Manager) saveSnapshot(mt *mpvm.MTask, key string, epoch, bytes int, payload any) error {
	if err := mgr.shipBytes(mt, bytes); err != nil {
		return err
	}
	sleep := func(d sim.Time) error { return mt.SleepUntil(mt.Proc().Now() + d) }
	return mgr.store.Write(sleep, key, epoch, bytes, payload)
}

// fetchSnapshot reads the latest image for key (disk time) and ships it to
// the calling VP's host (wire time).
func (mgr *Manager) fetchSnapshot(mt *mpvm.MTask, key string) (checkpoint.Snapshot, error) {
	snap, err := mgr.store.Read(mt.Proc(), key)
	if err != nil {
		return checkpoint.Snapshot{}, err
	}
	if err := mgr.shipBytes(mt, snap.Bytes); err != nil {
		return checkpoint.Snapshot{}, err
	}
	return snap, nil
}

// shipBytes charges the transfer of n bytes between the VP's host and the
// store host to the calling proc, staying migration-transparent: a migrate
// signal mid-ship runs the migration and the transfer continues from the
// (possibly new) host, retransmitting the interrupted fragment.
func (mgr *Manager) shipBytes(mt *mpvm.MTask, n int) error {
	p := mt.Proc()
	for remaining := n; remaining > 0; {
		net := mt.Host().Iface().Network()
		if int(mt.Host().ID()) == storeHost {
			// Co-located with the store (possibly only after migrating):
			// the rest is a loopback copy.
			return mt.SleepUntil(p.Now() + sim.FromSeconds(float64(remaining)/netsim.LoopbackBps))
		}
		frag := remaining
		if frag > netsim.MSS {
			frag = netsim.MSS
		}
		if err := net.Link().Transmit(p, frag); err != nil {
			if err := mt.HandleSignal(err); err != nil {
				return err
			}
			continue // migrated mid-fragment: retransmit it from the new host
		}
		remaining -= frag
	}
	if int(mt.Host().ID()) == storeHost {
		return nil
	}
	return mt.SleepUntil(p.Now() + netsim.Latency)
}

func (mgr *Manager) kernel() *sim.Kernel { return mgr.sys.Machine().Kernel() }

func (mgr *Manager) trace(actor, stage, detail string) {
	if mgr.log != nil {
		mgr.log.Record(mgr.kernel().Now(), actor, stage, detail)
	}
}

// recoverable reports whether an error from a master operation is a
// rollback interrupt (recovery proceeds) as opposed to a real failure —
// e.g. pvm.Killed on the master itself, or a protocol error.
func recoverable(err error) bool {
	ie, ok := sim.IsInterrupted(err)
	if !ok {
		return false
	}
	_, rb := ie.Reason.(rollbackSignal)
	return rb
}
