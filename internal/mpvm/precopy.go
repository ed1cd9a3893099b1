package mpvm

import (
	"fmt"

	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Warm (iterative precopy) migration. Stop-and-copy freezes the victim for
// the whole state transfer, so downtime grows linearly with state size —
// the obtrusiveness the paper's §5 tradeoff discussion warns about. The
// warm protocol keeps the victim computing while its image streams across
// in rounds: round 0 carries the full image, each later round carries only
// the state dirtied during the previous one, and the victim is frozen only
// for the final delta once the residual falls under warmCutoverBytes (or
// warmMaxRounds caps the chase). The stage-2 flush stays in force across
// the rounds, so the victim's inbox is quiescent for the cutover; warm
// shrinks the victim's frozen window, not its peers' blocked-send window.

// warmParams carries the per-migration precopy knobs from the stage-1
// command into the migration entry.
type warmParams struct {
	maxRounds    int
	cutoverBytes int
}

// warmMigrateCmd: global scheduler → source mpvmd (stage 1, warm variant).
type warmMigrateCmd struct {
	order        core.MigrationOrder
	orig         core.TID
	maxRounds    int
	cutoverBytes int
}

// roundHeader starts one precopy round on the skeleton TCP connection:
// bytes of state follow; final marks the post-freeze cutover round, after
// which the skeleton assumes the state.
type roundHeader struct {
	orig  core.TID
	round int
	bytes int
	final bool
}

// freezeSignal is delivered to the victim at cutover: it stops in its own
// signal handler until the precopy proc finishes the final round and
// re-enrolls it on the destination.
type freezeSignal struct {
	mig *migration
}

// MigrateWarm orders an iterative precopy migration of the task known by
// original tid orig to the dest host. Validation is identical to Migrate;
// only stages 3–4 differ.
func (s *System) MigrateWarm(orig core.TID, dest int, reason core.MigrationReason) error {
	mt, err := s.checkMigratable(orig, dest)
	if err != nil {
		return err
	}
	return s.migrateChecked(mt, dest, reason, true)
}

// onWarmMigrateCmd (source mpvmd): stage 1 → start stage 2 by flushing,
// with the migration entry marked warm so the barrier completes into the
// precopy proc instead of freezing the victim.
func (s *System) onWarmMigrateCmd(d *pvm.Daemon, cmd *warmMigrateCmd) {
	mig := s.beginMigration(d, cmd.order, cmd.orig)
	if mig == nil {
		return
	}
	mig.warm = &warmParams{maxRounds: cmd.maxRounds, cutoverBytes: cmd.cutoverBytes}
	mig.wake = sim.NewCond(s.m.Kernel())
	s.startFlush(d, mig, "flush message to all processes (warm)")
}

// startPrecopy launches the precopy proc once the stage-2 barrier
// completes. Unlike the cold path, the victim is NOT signalled: it keeps
// computing while the proc streams rounds beside it.
func (s *System) startPrecopy(mt *MTask, mig *migration) {
	s.m.Kernel().Spawn(fmt.Sprintf("precopy(%v)", mig.orig), func(p *sim.Proc) {
		s.runPrecopy(p, mt, mig)
	})
}

// warmGone reports whether the migration was abandoned underneath the
// precopy proc (victim exited, coordinator lost, cancel broadcast).
func (s *System) warmGone(mt *MTask, mig *migration) bool {
	return mig.cancelled || mt.Exited() || s.migrations[mig.orig] != mig
}

// abortWarm abandons a precopy migration and resumes the victim on the
// source host: restore a taken inbox, release a frozen victim, and run the
// common abort-to-source cancellation (which broadcasts the no-op restart
// and fires the abort hooks).
func (s *System) abortWarm(mt *MTask, mig *migration, srcD *pvm.Daemon, inbox []*pvm.Message, why string) {
	if inbox != nil {
		mt.RestoreInbox(inbox)
	}
	if mig.victimFrozen && !mig.released {
		mig.released = true
		mig.wake.Broadcast()
	}
	if s.warmGone(mt, mig) {
		// Already cancelled underneath us; nothing further to unwind.
		return
	}
	s.abortOnSource(mt, srcD, why)
}

// dirtyRate returns the victim's modelled dirty rate in bytes per second.
func (s *System) dirtyRate(mt *MTask) float64 {
	if mt.dirtyBps >= 0 {
		return mt.dirtyBps
	}
	return warmDirtyBps
}

// runPrecopy runs stages 3–4 of the warm protocol in its own kernel proc,
// beside the still-running victim.
func (s *System) runPrecopy(p *sim.Proc, mt *MTask, mig *migration) {
	destHost := mig.order.Dest
	srcD := s.m.Daemon(mig.srcHost)
	if srcD == nil || s.warmGone(mt, mig) {
		return
	}
	conn, err := s.openTransfer(p, mt, srcD, destHost)
	if err != nil {
		s.abortWarm(mt, mig, srcD, nil, err.Error())
		return
	}

	// Stage 3b: precopy rounds. Round 0 is the full image; each later round
	// resends what the victim dirtied during the previous one (rate model:
	// dirtyBps × round duration, capped at the image size — a task cannot
	// dirty more state than it has).
	toSend := mt.stateBytes
	for {
		if s.warmGone(mt, mig) {
			conn.Close()
			s.abortWarm(mt, mig, srcD, nil, "migration cancelled mid-precopy")
			return
		}
		began := p.Now()
		s.trace(mt.orig.String(), "3:precopy-round",
			fmt.Sprintf("round %d: %d bytes while task runs", mig.rounds, toSend))
		if err := s.stream(p, conn, srcD.Host(), &roundHeader{
			orig: mt.orig, round: mig.rounds, bytes: toSend,
		}, toSend); err != nil {
			conn.Close()
			s.abortWarm(mt, mig, srcD, nil, fmt.Sprintf("precopy round %d to host%d failed: %v", mig.rounds, destHost, err))
			return
		}
		mig.rounds++
		mig.precopyBytes += toSend
		elapsed := p.Now() - began
		dirtied := int(s.dirtyRate(mt) * elapsed.Seconds())
		if dirtied > mt.stateBytes {
			dirtied = mt.stateBytes
		}
		if dirtied <= mig.warm.cutoverBytes || mig.rounds >= mig.warm.maxRounds {
			toSend = dirtied
			break
		}
		toSend = dirtied
	}

	// Cutover: freeze the victim (this is where the downtime clock starts),
	// move the residual delta plus the buffered messages and register
	// context, and restart on the destination.
	if s.warmGone(mt, mig) {
		conn.Close()
		s.abortWarm(mt, mig, srcD, nil, "migration cancelled at cutover")
		return
	}
	s.trace(mt.orig.String(), "3:cutover", fmt.Sprintf("residual %d bytes ≤ bound after %d rounds; freezing victim", toSend, mig.rounds))
	mt.Proc().Interrupt(freezeSignal{mig: mig})
	for !mig.victimFrozen && !s.warmGone(mt, mig) {
		if err := mig.wake.Wait(p); err != nil {
			conn.Close()
			s.abortWarm(mt, mig, srcD, nil, "interrupted awaiting freeze")
			return
		}
	}
	if s.warmGone(mt, mig) {
		conn.Close()
		s.abortWarm(mt, mig, srcD, nil, "victim gone at cutover")
		return
	}

	inbox, tail := takeInbox(mt)
	finalBytes := toSend + tail
	s.trace(mt.orig.String(), "3:state-transfer", fmt.Sprintf("final delta %d bytes over TCP", finalBytes))
	if err := s.stream(p, conn, srcD.Host(), &roundHeader{
		orig: mt.orig, round: mig.rounds, bytes: finalBytes, final: true,
	}, finalBytes); err != nil {
		conn.Close()
		s.abortWarm(mt, mig, srcD, inbox, fmt.Sprintf("final delta to host%d failed: %v", destHost, err))
		return
	}
	destD, err := s.confirm(p, conn, destHost)
	if err != nil {
		s.abortWarm(mt, mig, srcD, inbox, err.Error())
		return
	}
	s.commit(p, mt, mig, destD, inbox, core.MigrationRecord{
		StateBytes:   mig.precopyBytes + finalBytes,
		Mode:         core.MigrationWarm,
		Rounds:       mig.rounds,
		PrecopyBytes: mig.precopyBytes,
	})

	// Release the victim: it resumes its interrupted operation, now on the
	// destination host.
	mig.released = true
	mig.wake.Broadcast()
}

// freezeVictim runs in the victim's own context when the cutover signal
// lands: it marks the freeze instant, wakes the precopy proc, and stops
// until the proc releases it (after reintegration or abort).
func (s *System) freezeVictim(mt *MTask, mig *migration) {
	p := mt.Proc()
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	if mig.cancelled || mig.released || s.migrations[mig.orig] != mig {
		return // cutover raced a cancellation; nothing to freeze for
	}
	mig.frozen = p.Now()
	mig.victimFrozen = true
	mig.wake.Broadcast()
	for !mig.released {
		if err := mig.wake.Wait(p); err != nil {
			return
		}
	}
}
