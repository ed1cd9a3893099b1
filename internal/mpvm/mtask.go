package mpvm

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// MTask is a migratable PVM task: a pvm.Task with the MPVM library linked
// in. Application code talks to the embedded *pvm.Task (which implements
// core.VP); the MTask holds the library-side migration state.
type MTask struct {
	*pvm.Task
	sys  *System
	orig core.TID // stable tid the application knows

	// stateBytes is the size of the process image that a migration must
	// move: writable data + heap + stack. The application declares it (and
	// may update it as it allocates), standing in for the run-time
	// segment-extent discovery the real MPVM performs.
	stateBytes int

	// Library-local tid maps, updated by restart messages as they arrive at
	// this host (each process's library has its *own* view, as in MPVM).
	tidMap map[core.TID]core.TID // original → current
	revMap map[core.TID]core.TID // current → original

	// tidHistoryNext chains old tids to their successor for daemon-level
	// stale-message forwarding: oldTid → next tid.
	tidHistoryNext map[core.TID]core.TID

	// blockedDst marks original tids currently migrating: sends block.
	blockedDst map[core.TID]bool
	blockedCh  *sim.Cond

	migrating bool
	memMB     int // physical memory reserved on the current host

	// dirtyBps models how fast the task rewrites its own state (bytes per
	// second of virtual time), driving the warm protocol's per-round
	// residual estimate; -1 means "never set", falling back to
	// warmDirtyBps.
	dirtyBps float64

	// orphaned marks an incarnation fenced off by failure handling: its host
	// went silent and a replacement may be (or has been) respawned. An
	// orphan may still be running on a partitioned host; it is reaped when
	// that host rejoins.
	orphaned bool
}

// SpawnMigratable starts a migratable task on host. The body receives the
// MTask; its embedded Task satisfies core.VP, so application code written
// against PVM runs unchanged ("source-code compatible — re-compile and
// re-link").
func (s *System) SpawnMigratable(host int, name string, stateBytes int, body func(*MTask)) (*MTask, error) {
	mt, err := s.spawnIncarnation(host, name, stateBytes, body)
	if err != nil {
		return nil, err
	}
	mt.orig = mt.Mytid()
	s.tasks[mt.orig] = mt
	s.globalRemap[mt.orig] = mt.orig
	s.incarnations[mt.orig] = append(s.incarnations[mt.orig], mt)
	s.linkHooks(mt, mt.Task)
	return mt, nil
}

// spawnIncarnation starts body as a new migratable process on host, with
// the library-side state SpawnMigratable and Respawn share and its memory
// reserved; the caller keys it to its stable tid. If the task finishes with
// a migration still pending against it (the signal raced its exit), the
// migration is abandoned and flush-stalled senders unblock.
func (s *System) spawnIncarnation(host int, name string, stateBytes int, body func(*MTask)) (*MTask, error) {
	mt := &MTask{
		sys:            s,
		stateBytes:     stateBytes,
		dirtyBps:       -1,
		tidMap:         make(map[core.TID]core.TID),
		revMap:         make(map[core.TID]core.TID),
		tidHistoryNext: make(map[core.TID]core.TID),
		blockedDst:     make(map[core.TID]bool),
		blockedCh:      sim.NewCond(s.m.Kernel()),
	}
	task, err := s.m.Spawn(host, name, func(t *pvm.Task) {
		body(mt)
		if _, pending := s.migrations[mt.orig]; pending {
			s.cancelMigration(mt.orig, t.Daemon())
		}
	})
	if err != nil {
		return nil, err
	}
	mt.Task = task
	mt.memMB = memMB(stateBytes)
	_ = task.Host().AllocMem(mt.memMB)
	return mt, nil
}

// linkHooks links the MPVM library hooks into the task, and arms the exit
// hook that reports host -1 while mt is still the VP's current incarnation.
func (s *System) linkHooks(mt *MTask, task *pvm.Task) {
	task.SetResolver(mt.resolveTID)
	task.SetSrcRemap(mt.remapSrc)
	task.SetBeforeSend(mt.beforeSend)
	task.SetOnSignal(mt.onSignal)
	task.OnExit(func(*pvm.Task) {
		if s.tasks[mt.orig] == mt {
			s.Placed(mt.orig, -1)
		}
	})
}

// OrigTID returns the stable tid the application uses for this task.
func (mt *MTask) OrigTID() core.TID { return mt.orig }

// StateBytes returns the declared process-image size.
func (mt *MTask) StateBytes() int { return mt.stateBytes }

// SetStateBytes updates the process-image size (e.g. after the application
// allocates its data arrays) and adjusts the host memory reservation.
func (mt *MTask) SetStateBytes(n int) {
	mt.stateBytes = n
	mt.Host().FreeMem(mt.memMB)
	mt.memMB = memMB(n)
	// Best effort: a 1994 workstation would start paging rather than
	// refuse; the model only hard-fails placement at migration time.
	_ = mt.Host().AllocMem(mt.memMB)
}

// SetDirtyRate declares how fast this task rewrites its own state, in
// bytes per second of virtual time. The warm protocol uses it to estimate
// the residual delta after each precopy round. A rate of 0 models a task
// whose state is effectively read-only after initialization (one round
// suffices); an unset rate falls back to warmDirtyBps (1 MB/s).
func (mt *MTask) SetDirtyRate(bps float64) { mt.dirtyBps = bps }

// memMB converts a process-image size to whole megabytes of residency.
func memMB(stateBytes int) int {
	mb := (stateBytes + (1 << 20) - 1) >> 20
	if mb < 1 {
		mb = 1
	}
	return mb
}

// Migrating reports whether the task is currently mid-migration.
func (mt *MTask) Migrating() bool { return mt.migrating }

// Orphaned reports whether this incarnation has been fenced off by failure
// handling (its host was declared dead while it may still run).
func (mt *MTask) Orphaned() bool { return mt.orphaned }

// resolveTID maps an application-visible (original) tid to the peer's
// current tid — the per-send remapping cost the paper describes.
func (mt *MTask) resolveTID(tid core.TID) core.TID {
	if cur, ok := mt.tidMap[tid]; ok {
		return cur
	}
	return tid
}

// remapSrc maps a message's on-the-wire sender tid back to the stable tid
// the application knows.
func (mt *MTask) remapSrc(tid core.TID) core.TID {
	if orig, ok := mt.revMap[tid]; ok {
		return orig
	}
	return tid
}

// beforeSend blocks while the destination is migrating (stage 2's "a send
// to the migrating process blocks the sending process"). Unblocked by the
// restart message (stage 4).
func (mt *MTask) beforeSend(dst core.TID) error {
	orig := mt.remapSrc(dst) // normalize in case the app held a current tid
	for mt.blockedDst[orig] {
		if err := mt.blockedCh.Wait(mt.Proc()); err != nil {
			return err
		}
	}
	return nil
}

// applyFlush marks sends to orig as blocked (runs when the flush message
// reaches this task's host).
func (mt *MTask) applyFlush(orig core.TID) {
	mt.blockedDst[orig] = true
}

// applyRestart installs a tid remapping and unblocks stalled senders (runs
// when the restart message reaches this task's host).
func (mt *MTask) applyRestart(orig, oldCur, newCur core.TID) {
	mt.tidMap[orig] = newCur
	delete(mt.revMap, oldCur)
	mt.revMap[newCur] = orig
	delete(mt.blockedDst, orig)
	mt.blockedCh.Broadcast()
	// The peer's old direct connection (if any) is gone.
	mt.Task.DropConn(oldCur)
}

// onSignal is the transparently-linked signal handler: a migrate signal
// arriving at any interrupt point runs the victim's part of the protocol
// (onMigrateSignal) in the task's own context and returns nil so the
// interrupted operation resumes.
func (mt *MTask) onSignal(reason any) error {
	if sig, ok := reason.(migrateSignal); ok {
		mt.sys.onMigrateSignal(mt, sig.mig)
		return nil
	}
	return &sim.Interrupted{Reason: reason}
}

// SleepUntil blocks the task until virtual time t while staying
// migration-transparent, for layers that block outside the library (ft's
// checkpoint I/O, the serving frontend): a migrate signal mid-sleep runs the
// migration in the task's own context through HandleSignal and the sleep
// resumes for the remainder. Any other interrupt — rollback, kill —
// surfaces to the caller.
func (mt *MTask) SleepUntil(t sim.Time) error {
	p := mt.Proc()
	for p.Now() < t {
		if err := p.SleepUntil(t); err != nil {
			if err := mt.HandleSignal(err); err != nil {
				return err
			}
		}
	}
	return nil
}

// migrateSignal stops the victim in its own signal handler: once flushing
// completes (stop-and-copy) or at cutover (warm).
type migrateSignal struct {
	mig *migration
}
