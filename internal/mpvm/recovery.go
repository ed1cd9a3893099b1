package mpvm

import (
	"errors"
	"fmt"
	"strings"

	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// This file is MPVM's contribution to the fault-tolerance layer
// (internal/ft): reusing the stage-2 message flush to quiesce traffic
// around a task for a coordinated checkpoint, and re-creating a dead
// task's incarnation from a checkpoint with the stage-4 tid-remap
// broadcast — the paper's §5.0 observation that checkpointing buys what
// migrate-current-state cannot, built from the same protocol pieces.

// ErrStillAlive is returned by Respawn when the task's current incarnation
// has not exited.
var ErrStillAlive = errors.New("mpvm: task incarnation still alive")

// FlushAndHold runs stage 2 (flush) around orig without migrating it and
// blocks p until every member host acknowledged; senders to orig stay
// blocked until Release. The checkpoint layer snapshots the task between
// the two calls, knowing no message is in flight toward it. A hold
// cancelled first (task exit, coordinator loss) does not wake p; an
// interrupt does, releases the hold and is returned.
func (s *System) FlushAndHold(p *sim.Proc, orig core.TID) error {
	mt, ok := s.tasks[orig]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownTask, orig)
	}
	if mt.migrating {
		return fmt.Errorf("%w: %v", ErrAlreadyMoving, orig)
	}
	if _, busy := s.migrations[orig]; busy {
		return fmt.Errorf("%w: %v", ErrAlreadyMoving, orig)
	}
	d := mt.Daemon()
	mig := &migration{orig: orig, srcHost: int(d.Host().ID()), start: s.m.Kernel().Now(),
		held: sim.NewCond(s.m.Kernel())}
	s.startFlush(d, mig, "checkpoint flush to all processes")
	for !mig.flush.Done() {
		if err := mig.held.Wait(p); err != nil {
			s.Release(orig)
			return err
		}
	}
	return nil
}

// Release ends a FlushAndHold: a no-op restart (old tid = new tid) is
// broadcast so flush-stalled senders resume.
func (s *System) Release(orig core.TID) {
	mt, ok := s.tasks[orig]
	if !ok {
		return
	}
	s.cancelMigration(orig, mt.Daemon())
}

// Respawn creates a fresh incarnation of a dead task from recovered state:
// a new process is spawned on host, keyed to the same original tid, and a
// restart broadcast re-points every library's tid map from the dead
// incarnation to the new one — so peers keep using the tid they first
// learned, exactly as across a migration. The body is responsible for
// reloading application state (from the checkpoint store) before serving.
func (s *System) Respawn(orig core.TID, host int, name string, stateBytes int, body func(*MTask)) (*MTask, error) {
	old, ok := s.tasks[orig]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownTask, orig)
	}
	// An orphaned incarnation may still be running somewhere unreachable;
	// it has been fenced (OrphanTask) and will be reaped on rejoin, so a
	// replacement may be created while it technically lives.
	if !old.Exited() && !old.orphaned {
		return nil, fmt.Errorf("%w: %v", ErrStillAlive, orig)
	}
	oldCur := s.CurrentTID(orig)
	// Any protocol state the dead incarnation left behind is void.
	delete(s.migrations, orig)

	nt, err := s.spawnIncarnation(host, name, stateBytes, body)
	if err != nil {
		return nil, err
	}
	nt.orig = orig

	// Preserve the dead incarnation's tid history (its own prior migrations)
	// and chain its last tid to the new one, so stale in-flight messages
	// still forward to the live incarnation.
	for from, to := range old.tidHistoryNext {
		nt.tidHistoryNext[from] = to
	}
	newTID := nt.Mytid()
	nt.tidHistoryNext[oldCur] = newTID
	s.tasks[orig] = nt
	s.incarnations[orig] = append(s.incarnations[orig], nt)
	s.globalRemap[orig] = newTID

	// The fresh library starts from the machine's authoritative view of
	// every other task (a respawned process re-learns the world from its
	// mpvmd, not from history it no longer has). The install is traced in
	// a fixed order so a recovery replay fingerprints identically run to
	// run — the worldview line is part of the determinism audit.
	origs := sortedTIDs(s.globalRemap)
	view := make([]string, 0, len(origs))
	for _, o := range origs {
		if o == orig {
			continue
		}
		cur := s.globalRemap[o]
		nt.tidMap[o] = cur
		nt.revMap[cur] = o
		view = append(view, fmt.Sprintf("%v->%v", o, cur))
	}
	s.Trace(fmt.Sprintf("mpvmd%d", host), "4:worldview",
		fmt.Sprintf("respawned %v learns %s", orig, strings.Join(view, " ")))
	s.linkHooks(nt, nt.Task)

	d := s.m.Daemon(host)
	s.Trace(fmt.Sprintf("mpvmd%d", host), "4:respawn",
		fmt.Sprintf("%v re-incarnated as %v on host%d; broadcasting restart", orig, newTID, host))
	for h := 0; h < s.m.NHosts(); h++ {
		d.SendCtl(h, ctlBytes, &pvm.CtlMsg{Kind: "mpvm",
			Payload: &restartCmd{orig: orig, oldTID: oldCur, newTID: newTID}})
	}
	s.Placed(orig, host)
	return nt, nil
}

// OrphanTask fences off a task's current incarnation without requiring its
// death. Used when the incarnation's host has been declared dead by silence:
// a crashed host's tasks really are dead, but a *partitioned* host's tasks
// keep running, invisible — and the recovery layer must be able to respawn a
// replacement either way. The orphan's stale traffic is fenced by the
// application-level epoch stamps; the orphan itself is reaped when (if) its
// host rejoins. Reports whether a live incarnation was actually orphaned.
func (s *System) OrphanTask(orig core.TID) bool {
	mt, ok := s.tasks[orig]
	if !ok || mt.orphaned {
		return false
	}
	mt.orphaned = true
	if mt.Exited() {
		return false
	}
	s.orphans = append(s.orphans, mt)
	s.Trace(mt.orig.String(), "orphan", fmt.Sprintf("incarnation %v fenced on silent host%d", mt.Mytid(), mt.Host().ID()))
	return true
}

// ReapOrphans force-kills every fenced incarnation found still running on
// host — the first thing a rejoining host's mpvmd does, so a split-brain
// survivor cannot compute alongside its replacement. Returns how many
// orphans were reaped.
func (s *System) ReapOrphans(host int) int {
	keep := s.orphans[:0]
	n := 0
	for _, mt := range s.orphans {
		if mt.Exited() {
			continue // died on its own (e.g. the host really crashed)
		}
		if int(mt.Host().ID()) != host {
			keep = append(keep, mt)
			continue
		}
		s.Trace(mt.orig.String(), "reap", fmt.Sprintf("orphan incarnation %v killed on rejoined host%d", mt.Mytid(), host))
		mt.Task.ForceKill(pvm.Killed{Host: host})
		n++
	}
	s.orphans = keep
	return n
}

// Orphans returns the fenced incarnations not yet reaped or exited.
func (s *System) Orphans() []*MTask {
	live := make([]*MTask, 0, len(s.orphans))
	for _, mt := range s.orphans {
		if !mt.Exited() {
			live = append(live, mt)
		}
	}
	return live
}
