package mpvm

import (
	"errors"
	"fmt"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Protocol control payloads, all carried in pvm.CtlMsg{Kind: "mpvm"}.
type (
	// migrateCmd: global scheduler → source mpvmd (stage 1).
	migrateCmd struct {
		order core.MigrationOrder
		orig  core.TID
	}
	// flushCmd: source mpvmd → every mpvmd (stage 2).
	flushCmd struct {
		orig    core.TID
		srcHost int
	}
	// flushAck: every mpvmd → source mpvmd (stage 2).
	flushAck struct {
		orig core.TID
		host int
	}
	// skeletonReq: migrating process → destination mpvmd (stage 3).
	skeletonReq struct {
		rpc     int
		orig    core.TID
		name    string
		srcHost int
		bytes   int
	}
	// skeletonReady: destination mpvmd → source host (stage 3).
	skeletonReady struct {
		rpc  int
		port int
	}
	// restartCmd: migrated process → every mpvmd (stage 4).
	restartCmd struct {
		orig   core.TID
		oldTID core.TID
		newTID core.TID
	}
)

const migPortBase = 50000

// stateHeader starts a state-transfer stream on the skeleton TCP
// connection.
type stateHeader struct {
	orig  core.TID
	total int
}

// Migrate orders a migration: move the task known by original tid orig to
// the dest host. The request travels as a control message to the mpvmd on
// the source host, exactly as the paper's GS does it. Validation errors
// (unknown task, incompatible architecture, same host) surface immediately.
func (s *System) Migrate(orig core.TID, dest int, reason core.MigrationReason) error {
	mt, err := s.checkMigratable(orig, dest)
	if err != nil {
		return err
	}
	return s.migrateChecked(mt, dest, reason, s.warmByDefault)
}

// checkMigratable validates a requested move (shared by Migrate and
// MigrateWarm) and returns the task on success.
func (s *System) checkMigratable(orig core.TID, dest int) (*MTask, error) {
	mt, ok := s.tasks[orig]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownTask, orig)
	}
	if mt.migrating {
		return nil, fmt.Errorf("%w: %v", ErrAlreadyMoving, orig)
	}
	destD := s.m.Daemon(dest)
	if destD == nil {
		return nil, fmt.Errorf("mpvm: no host %d", dest)
	}
	srcHost := mt.Host()
	if int(srcHost.ID()) == dest {
		return nil, fmt.Errorf("%w: %v on host %d", ErrSameHost, orig, dest)
	}
	if !srcHost.MigrationCompatible(destD.Host()) {
		return nil, fmt.Errorf("%w: %s (%s) → %s (%s)", ErrIncompatible,
			srcHost.Name(), srcHost.Arch(), destD.Host().Name(), destD.Host().Arch())
	}
	destHost := destD.Host()
	if free := destHost.Spec().MemMB - destHost.MemUsedMB(); free < memMB(mt.stateBytes) {
		return nil, fmt.Errorf("%w: %s has %d MB free, %v needs %d MB",
			ErrNoMemory, destHost.Name(), free, orig, memMB(mt.stateBytes))
	}
	return mt, nil
}

// migrateChecked sends the stage-1 command after Migrate/MigrateWarm
// validated the move. warm selects the iterative precopy protocol.
func (s *System) migrateChecked(mt *MTask, dest int, reason core.MigrationReason, warm bool) error {
	orig := mt.orig
	srcHost := mt.Host()
	order := core.MigrationOrder{VP: orig, Dest: dest, Reason: reason}
	srcD := s.m.Daemon(int(srcHost.ID()))
	if warm {
		s.trace("GS", "1:migration-event", fmt.Sprintf("migrate %v to host%d (%s, warm)", orig, dest, reason))
		srcD.SendCtl(int(srcHost.ID()), ctlBytes,
			&pvm.CtlMsg{Kind: "mpvm", Payload: &warmMigrateCmd{
				order: order, orig: orig,
				maxRounds: warmMaxRounds, cutoverBytes: warmCutoverBytes,
			}})
		return nil
	}
	s.trace("GS", "1:migration-event", fmt.Sprintf("migrate %v to host%d (%s)", orig, dest, reason))
	srcD.SendCtl(int(srcHost.ID()), ctlBytes,
		&pvm.CtlMsg{Kind: "mpvm", Payload: &migrateCmd{order: order, orig: orig}})
	return nil
}

// handleCtl is installed as every daemon's Control hook.
func (s *System) handleCtl(d *pvm.Daemon, c *pvm.CtlMsg) {
	if c.Kind != "mpvm" {
		return
	}
	switch p := c.Payload.(type) {
	case *migrateCmd:
		s.onMigrateCmd(d, p)
	case *warmMigrateCmd:
		s.onWarmMigrateCmd(d, p)
	case *flushCmd:
		s.onFlushCmd(d, p)
	case *flushAck:
		s.onFlushAck(d, p)
	case *skeletonReq:
		s.onSkeletonReq(d, p)
	case *skeletonReady:
		s.completeRPC(p.rpc, p)
	case *restartCmd:
		s.onRestartCmd(d, p)
	}
}

// onMigrateCmd (source mpvmd): stage 1 → start stage 2 by flushing.
func (s *System) onMigrateCmd(d *pvm.Daemon, cmd *migrateCmd) {
	if mig := s.beginMigration(d, cmd.order, cmd.orig); mig != nil {
		s.startFlush(d, mig, "flush message to all processes")
	}
}

// beginMigration (source mpvmd) marks the victim migrating and returns its
// migration entry, or nil when the order is stale: the task is unknown,
// already moving, or has exited since the GS chose it.
func (s *System) beginMigration(d *pvm.Daemon, order core.MigrationOrder, orig core.TID) *migration {
	mt, ok := s.tasks[orig]
	if !ok || mt.migrating || mt.Exited() {
		return nil
	}
	mt.migrating = true
	return newMigration(order, orig, int(d.Host().ID()), s.m.Kernel().Now(), s.aliveHosts())
}

// startFlush (source mpvmd) opens the stage-2 barrier for mig: every mpvmd
// is told to block sends to the task and acknowledge. A migration's flush
// and a checkpoint's (FlushAndHold) both start here; what is the trace
// detail that tells them apart.
func (s *System) startFlush(d *pvm.Daemon, mig *migration, what string) {
	s.migrations[mig.orig] = mig
	s.trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush", what)
	for h := 0; h < s.m.NHosts(); h++ {
		d.SendCtl(h, ctlBytes, &pvm.CtlMsg{Kind: "mpvm",
			Payload: &flushCmd{orig: mig.orig, srcHost: mig.srcHost}})
	}
}

// onFlushCmd (every mpvmd): block local senders, acknowledge.
func (s *System) onFlushCmd(d *pvm.Daemon, cmd *flushCmd) {
	for _, mt := range s.tasks {
		if mt.orig == cmd.orig || mt.Exited() {
			continue
		}
		if mt.Host().ID() == d.Host().ID() {
			mt.applyFlush(cmd.orig)
		}
	}
	d.SendCtl(cmd.srcHost, ctlBytes,
		&pvm.CtlMsg{Kind: "mpvm", Payload: &flushAck{orig: cmd.orig, host: int(d.Host().ID())}})
}

// onFlushAck (source mpvmd): count the ack once per host; when all live
// hosts acknowledged, complete the barrier.
func (s *System) onFlushAck(d *pvm.Daemon, ack *flushAck) {
	mig, ok := s.migrations[ack.orig]
	if !ok || mig.flushed {
		return
	}
	if mig.acked[ack.host] || mig.discounted[ack.host] {
		// Duplicate, or a late ack from a host already written off (a healed
		// partition delivering stale control traffic).
		return
	}
	mig.acked[ack.host] = true
	mig.acksHave++
	s.maybeFinishFlush(mig)
}

// maybeFinishFlush completes the stage-2 barrier once every still-expected
// host has acknowledged. Reached from both ack arrival and host-loss
// discounting (NoteHostUnreachable), and guarded so it fires exactly once.
func (s *System) maybeFinishFlush(mig *migration) {
	if mig.flushed || mig.acksHave < mig.acksWant {
		return
	}
	mig.flushed = true
	d := s.m.Daemon(mig.srcHost)
	if d == nil {
		return
	}
	mt := s.tasks[mig.orig]
	if mt == nil || mt.Exited() {
		s.cancelMigration(mig.orig, d)
		return
	}
	if mig.onFlushed != nil {
		// Checkpoint flush: the network is quiescent around the task; hand
		// control to the checkpoint protocol. The entry stays in
		// s.migrations until Release so senders remain blocked.
		s.trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-complete", "all acks received; checkpoint may proceed")
		mig.onFlushed()
		return
	}
	if mig.warm != nil {
		// Warm: the victim keeps running; a separate precopy proc streams
		// rounds beside it and freezes it only at cutover.
		s.trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-complete", "all acks received; starting precopy")
		s.startPrecopy(mt, mig)
		return
	}
	// The signal interrupts the process at an arbitrary execution point; if
	// it is inside the run-time library (interrupts masked) the migration
	// is deferred until the library call completes.
	s.trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-complete", "all acks received; signalling victim")
	mt.Proc().Interrupt(migrateSignal{mig: mig})
}

// onSkeletonReq (destination mpvmd): start the skeleton process, reply with
// the TCP port once it listens.
func (s *System) onSkeletonReq(d *pvm.Daemon, req *skeletonReq) {
	port := migPortBase + req.rpc
	k := s.m.Kernel()
	k.Schedule(skeletonStart, func() {
		l, err := d.Host().Iface().Listen(port)
		if err != nil {
			return
		}
		k.Spawn(fmt.Sprintf("skeleton(%v)", req.orig), func(p *sim.Proc) {
			defer l.Close()
			conn, err := l.Accept(p)
			if err != nil {
				return
			}
			defer conn.Close()
			// First segment is the header announcing the stream shape: a
			// stateHeader opens a stop-and-copy transfer, a roundHeader a
			// warm precopy sequence.
			seg, err := conn.Recv(p)
			if err != nil {
				return
			}
			switch hdr := seg.Payload.(type) {
			case *stateHeader:
				got := 0
				for got < hdr.total {
					seg, err := conn.Recv(p)
					if err != nil {
						return
					}
					got += seg.Bytes
				}
			case *roundHeader:
				// Warm: absorb rounds (each a header plus its bytes) until
				// the final cutover round lands.
				for {
					got := 0
					for got < hdr.bytes {
						seg, err := conn.Recv(p)
						if err != nil {
							return
						}
						got += seg.Bytes
					}
					if hdr.final {
						break
					}
					seg, err := conn.Recv(p)
					if err != nil {
						return
					}
					next, ok := seg.Payload.(*roundHeader)
					if !ok {
						return
					}
					hdr = next
				}
			default:
				return
			}
			// State assumed: tell the source so it can exit and the task
			// can restart here.
			// lint:reason a broken transfer connection surfaces as the source's own Recv error, which aborts the migration
			_ = conn.Send(p, ctlBytes, "state-assumed")
		})
		d.SendCtl(req.srcHost, ctlBytes,
			&pvm.CtlMsg{Kind: "mpvm", Payload: &skeletonReady{rpc: req.rpc, port: port}})
	})
}

// cancelMigration abandons an in-flight migration whose victim exited
// before (or while) the protocol ran: the entry is dropped and a no-op
// restart (old tid = new tid) is broadcast so any sender stalled on the
// flush flag unblocks instead of waiting forever.
func (s *System) cancelMigration(orig core.TID, d *pvm.Daemon) {
	mig, ok := s.migrations[orig]
	if !ok {
		return
	}
	delete(s.migrations, orig)
	// A warm migration may have a precopy proc mid-round and a victim frozen
	// at cutover: mark the entry dead and wake both so they unwind.
	mig.cancelled = true
	mig.released = true
	if mig.wake != nil {
		mig.wake.Broadcast()
	}
	if mt := s.tasks[orig]; mt != nil {
		mt.migrating = false
	}
	cur := s.CurrentTID(orig)
	for h := 0; h < s.m.NHosts(); h++ {
		d.SendCtl(h, ctlBytes, &pvm.CtlMsg{Kind: "mpvm",
			Payload: &restartCmd{orig: orig, oldTID: cur, newTID: cur}})
	}
	s.noteAbort(orig)
}

// onRestartCmd (every mpvmd): publish the remap to local tasks and unblock
// stalled senders.
func (s *System) onRestartCmd(d *pvm.Daemon, cmd *restartCmd) {
	for _, mt := range s.tasks {
		if mt.orig == cmd.orig || mt.Exited() {
			continue
		}
		if mt.Host().ID() == d.Host().ID() {
			mt.applyRestart(cmd.orig, cmd.oldTID, cmd.newTID)
		}
	}
}

// skeletonTimedOut is the rpc reply installed when the destination mpvmd
// never answers a skeleton request (it crashed after stage 1).
type skeletonTimedOut struct{}

// abortOnSource abandons a migration whose destination failed before the
// process image committed to it: the task keeps running where it is, and
// the cancel broadcast (a no-op restart) unblocks every flush-stalled
// sender. Safe at any point up to AttachToHost because the source copy of
// the process is only released after the skeleton confirms.
func (s *System) abortOnSource(mt *MTask, d *pvm.Daemon, why string) {
	s.trace(mt.orig.String(), "3:abort", why+"; resuming on source host")
	mt.migrating = false
	s.cancelMigration(mt.orig, d)
}

// executeMigration runs stages 3 and 4 of stop-and-copy in the migrating
// process's own context (the transparently linked signal handler).
func (s *System) executeMigration(mt *MTask, sig migrateSignal) {
	p := mt.Proc()
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	mig := sig.mig
	destHost := mig.order.Dest
	srcD := mt.Daemon()
	// Stop-and-copy downtime starts here: the victim is stopped in its
	// signal handler for the whole transfer.
	mig.frozen = p.Now()

	conn, err := s.openTransfer(p, mt, srcD, destHost)
	if err != nil {
		s.abortOnSource(mt, srcD, err.Error())
		return
	}
	// Stage 3b: stream the process image: data + heap + stack (stateBytes),
	// buffered/unreceived messages, and the register context.
	inbox, tail := takeInbox(mt)
	total := mt.stateBytes + tail
	s.trace(mt.orig.String(), "3:state-transfer", fmt.Sprintf("%d bytes over TCP", total))
	if err := s.stream(p, conn, srcD.Host(), &stateHeader{orig: mt.orig, total: total}, total); err != nil {
		conn.Close()
		mt.RestoreInbox(inbox)
		s.abortOnSource(mt, srcD, fmt.Sprintf("transfer to host%d failed: %v", destHost, err))
		return
	}
	destD, err := s.confirm(p, conn, destHost)
	if err != nil {
		mt.RestoreInbox(inbox)
		s.abortOnSource(mt, srcD, err.Error())
		return
	}
	s.commit(p, mt, mig, destD, inbox, core.MigrationRecord{StateBytes: total, Mode: core.MigrationCold})
}

// The helpers below are stages 3–4 as both protocols run them. Stop-and-copy
// calls them from the victim's own proc, inside its signal handler; warm
// precopy (precopy.go) calls them from a proc beside the still-running
// victim. None of them knows which: what differs between the protocols is
// who is frozen while they run, not what they do.

// openTransfer is stage 3a: request a skeleton on the destination host, wait
// for it to listen — but not forever: a destination that crashed after
// stage 1 never replies, and without a deadline every sender would stay
// flush-blocked for the rest of the run — and connect to it. The error is
// the reason to abort to source.
func (s *System) openTransfer(p *sim.Proc, mt *MTask, srcD *pvm.Daemon, destHost int) (*netsim.Conn, error) {
	rpcID, pend := s.nextRPC()
	srcD.SendCtl(destHost, ctlBytes, &pvm.CtlMsg{Kind: "mpvm", Payload: &skeletonReq{
		rpc: rpcID, orig: mt.orig, name: mt.Name(),
		srcHost: int(srcD.Host().ID()), bytes: mt.stateBytes,
	}})
	s.m.Kernel().Schedule(skeletonTimeout, func() {
		s.completeRPC(rpcID, skeletonTimedOut{})
	})
	for pend.reply == nil {
		if err := pend.cond.Wait(p); err != nil {
			delete(s.rpcWait, rpcID)
			return nil, errors.New("interrupted awaiting skeleton")
		}
	}
	ready, ok := pend.reply.(*skeletonReady)
	if !ok {
		return nil, fmt.Errorf("no skeleton on host%d within %v", destHost, skeletonTimeout)
	}
	s.trace("skeleton", "3:skeleton-ready", fmt.Sprintf("listening on host%d:%d", destHost, ready.port))
	conn, err := srcD.Host().Iface().Dial(p, netsim.HostID(destHost), ready.port)
	if err != nil {
		return nil, fmt.Errorf("dial host%d failed: %w", destHost, err)
	}
	return conn, nil
}

// takeInbox takes the victim's buffered, unreceived messages for transfer
// and returns them with the bytes that ride behind the image proper: the
// messages plus the register context.
func takeInbox(mt *MTask) (inbox []*pvm.Message, tailBytes int) {
	const contextBytes = 4 << 10 // registers + signal state + library tables
	inbox = mt.TakeInbox()
	tailBytes = contextBytes
	for _, m := range inbox {
		tailBytes += m.WireBytes()
	}
	return inbox, tailBytes
}

// stream is stage 3b's wire loop: hdr (a stateHeader, or one precopy
// round's roundHeader) announces n bytes, which follow in transferChunk
// writes from srcHost.
func (s *System) stream(p *sim.Proc, conn *netsim.Conn, srcHost *cluster.Host, hdr any, n int) error {
	if err := conn.Send(p, 64, hdr); err != nil {
		return err
	}
	for n > 0 {
		chunk := n
		if chunk > transferChunk {
			chunk = transferChunk
		}
		// write() copies through the kernel on both sides — the cost that
		// keeps MPVM above raw TCP in Table 2.
		s.m.ChargeCPU(p, srcHost, sim.FromSeconds(float64(chunk)/transferCopyBps))
		if err := conn.Send(p, chunk, nil); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

// confirm waits for the skeleton to report it assumed the state, closes the
// transfer connection and returns the destination's mpvmd. Until this
// confirmation the source copy is authoritative: a destination crash mid-
// or post-transfer loses only the copy, not the process.
func (s *System) confirm(p *sim.Proc, conn *netsim.Conn, destHost int) (*pvm.Daemon, error) {
	_, err := conn.Recv(p)
	conn.Close()
	if err != nil {
		return nil, fmt.Errorf("no state-assumed confirmation from host%d: %w", destHost, err)
	}
	destD := s.m.Daemon(destHost)
	if destD == nil || !destD.Host().Alive() {
		// Confirmed, then died at the same virtual instant: the copy is gone.
		return nil, fmt.Errorf("host%d died after confirming", destHost)
	}
	return destD, nil
}

// commit takes the task off the source host and runs stage 4 on destD. rec
// arrives carrying what only the caller knows — bytes moved, mode, rounds —
// and is completed and appended here.
func (s *System) commit(p *sim.Proc, mt *MTask, mig *migration, destD *pvm.Daemon,
	inbox []*pvm.Message, rec core.MigrationRecord) {
	// The process image is committed to the destination: this is the end of
	// the obtrusiveness window on the source machine.
	mt.DetachFromHost()
	mig.offSource = p.Now()
	s.trace(mt.orig.String(), "3:off-source", "process image off the source host")

	// Stage 4: the skeleton is now the process. Re-enroll with the new
	// mpvmd (fresh tid), restore buffered messages, broadcast restart.
	// Memory residency moves with the image.
	mt.Host().FreeMem(mt.memMB)
	mt.memMB = memMB(mt.stateBytes)
	_ = destD.Host().AllocMem(mt.memMB)
	oldTID := mt.Mytid()
	newTID := mt.AttachToHost(destD)
	s.trace(mt.orig.String(), "4:restart", fmt.Sprintf("re-enrolled as %v; broadcasting restart", newTID))
	s.m.ChargeCPU(p, mt.Host(), restartOverhead)
	mt.RestoreInbox(inbox)
	mt.tidHistoryNext[oldTID] = newTID
	s.globalRemap[mt.orig] = newTID
	for h := 0; h < s.m.NHosts(); h++ {
		destD.SendCtl(h, ctlBytes, &pvm.CtlMsg{Kind: "mpvm",
			Payload: &restartCmd{orig: mt.orig, oldTID: oldTID, newTID: newTID}})
	}

	mt.migrating = false
	delete(s.migrations, mt.orig)
	rec.VP = mt.orig
	rec.NewTID = newTID
	rec.From = mig.srcHost
	rec.To = mig.order.Dest
	rec.Reason = mig.order.Reason
	rec.Start = mig.start
	rec.OffSource = mig.offSource
	rec.Reintegrated = p.Now()
	rec.Frozen = mig.frozen
	s.finishMigration(mig, rec)
	s.trace(mt.orig.String(), "4:reintegrated", "resuming application execution")
	s.notePlacement(mt.orig, mig.order.Dest, mt.Task)
}
