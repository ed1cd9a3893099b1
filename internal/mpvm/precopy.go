package mpvm

import (
	"fmt"

	"pvmigrate/internal/netsim"
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
//
// Warm and stop-and-copy are one driver (transfer, protocol.go): the same
// stage-1 command, victim signal, cutover and abort. Stop-and-copy is the
// zero-round case; what this file adds is the precopy proc: the rounds,
// and its side of the handshake that freezes a victim that kept running.

// startPrecopy launches the precopy proc once the stage-2 barrier
// completes. Unlike stop-and-copy, the victim is NOT signalled: it keeps
// computing while the proc runs the transfer beside it.
func (s *System) startPrecopy(mt *MTask, mig *migration) {
	s.m.Kernel().Spawn(fmt.Sprintf("precopy(%v)", mig.orig), func(p *sim.Proc) {
		srcD := s.m.Daemon(mig.srcHost)
		if srcD == nil || s.gone(mt, mig) {
			return
		}
		s.transfer(p, mt, mig, srcD)
	})
}

// dirtyRate returns the victim's modelled dirty rate in bytes per second.
func (s *System) dirtyRate(mt *MTask) float64 {
	if mt.dirtyBps >= 0 {
		return mt.dirtyBps
	}
	return warmDirtyBps
}

// precopy streams the warm protocol's rounds beside the still-running
// victim, then freezes it for the cutover. It returns the residual delta
// the final round must carry, or ok false when the migration was abandoned
// (and, where it was still ours, aborted) on the way.
func (s *System) precopy(p *sim.Proc, mt *MTask, mig *migration, srcD *pvm.Daemon, conn *netsim.Conn) (resid int, ok bool) {
	// Round 0 is the full image; each later round resends what the victim
	// dirtied during the previous one (rate model: dirtyBps × round
	// duration, capped at the image size — a task cannot dirty more state
	// than it has).
	toSend := mt.stateBytes
	for {
		if s.gone(mt, mig) {
			conn.Close()
			return 0, false
		}
		began := p.Now()
		s.Trace(mt.orig.String(), "3:precopy-round",
			fmt.Sprintf("round %d: %d bytes while task runs", mig.rounds, toSend))
		if err := s.stream(p, conn, srcD.Host(), &roundHeader{
			orig: mt.orig, round: mig.rounds, bytes: toSend,
		}, toSend); err != nil {
			conn.Close()
			s.abort(mt, mig, srcD, nil, fmt.Sprintf("precopy round %d to host%d failed: %v", mig.rounds, mig.order.Dest, err))
			return 0, false
		}
		mig.rounds++
		mig.precopyBytes += toSend
		toSend = int(s.dirtyRate(mt) * (p.Now() - began).Seconds())
		if toSend > mt.stateBytes {
			toSend = mt.stateBytes
		}
		if toSend <= warmCutoverBytes || mig.rounds >= warmMaxRounds {
			break
		}
	}

	// Freeze the victim: this is where the downtime clock starts.
	if s.gone(mt, mig) {
		conn.Close()
		return 0, false
	}
	s.Trace(mt.orig.String(), "3:cutover", fmt.Sprintf("residual %d bytes ≤ bound after %d rounds; freezing victim", toSend, mig.rounds))
	mt.Proc().Interrupt(migrateSignal{mig: mig})
	for !mig.victimFrozen && !s.gone(mt, mig) {
		if err := mig.wake.Wait(p); err != nil {
			conn.Close()
			s.abort(mt, mig, srcD, nil, "interrupted awaiting freeze")
			return 0, false
		}
	}
	if s.gone(mt, mig) {
		conn.Close()
		mig.release()
		return 0, false
	}
	return toSend, true
}

// release lets a victim frozen at cutover resume: on the destination after
// a commit, on the source after an abort.
func (mig *migration) release() {
	if mig.victimFrozen && !mig.released {
		mig.released = true
		mig.wake.Broadcast()
	}
}
