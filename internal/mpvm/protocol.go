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
	// migrateCmd: global scheduler → source mpvmd (stage 1). warm prefixes
	// the cutover with precopy rounds; stop-and-copy is the zero-round case.
	migrateCmd struct {
		order core.MigrationOrder
		orig  core.TID
		warm  bool
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

// roundHeader starts one round of the state transfer on the skeleton TCP
// connection: bytes of state follow. final marks the cutover round — the
// only round of a stop-and-copy transfer — after which the skeleton
// assumes the state.
type roundHeader struct {
	orig  core.TID
	round int
	bytes int
	final bool
}

// Migrate orders a migration: move the task known by original tid orig to
// the dest host. The request travels as a control message to the mpvmd on
// the source host, exactly as the paper's GS does it. Validation errors
// (unknown task, incompatible architecture, same host) surface immediately.
func (s *System) Migrate(orig core.TID, dest int, reason core.MigrationReason) error {
	return s.migrate(orig, dest, reason, s.warmByDefault)
}

// MigrateWarm orders an iterative precopy migration (precopy.go) of the
// task known by original tid orig to the dest host. Validation is
// identical to Migrate.
func (s *System) MigrateWarm(orig core.TID, dest int, reason core.MigrationReason) error {
	return s.migrate(orig, dest, reason, true)
}

// migrate validates a requested move and sends the stage-1 command.
func (s *System) migrate(orig core.TID, dest int, reason core.MigrationReason, warm bool) error {
	mt, ok := s.tasks[orig]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownTask, orig)
	}
	if mt.migrating {
		return fmt.Errorf("%w: %v", ErrAlreadyMoving, orig)
	}
	destD := s.m.Daemon(dest)
	if destD == nil {
		return fmt.Errorf("mpvm: no host %d", dest)
	}
	srcHost := mt.Host()
	if int(srcHost.ID()) == dest {
		return fmt.Errorf("%w: %v on host %d", ErrSameHost, orig, dest)
	}
	if !srcHost.MigrationCompatible(destD.Host()) {
		return fmt.Errorf("%w: %s (%s) → %s (%s)", ErrIncompatible,
			srcHost.Name(), srcHost.Arch(), destD.Host().Name(), destD.Host().Arch())
	}
	destHost := destD.Host()
	if free := destHost.Spec().MemMB - destHost.MemUsedMB(); free < memMB(mt.stateBytes) {
		return fmt.Errorf("%w: %s has %d MB free, %v needs %d MB",
			ErrNoMemory, destHost.Name(), free, orig, memMB(mt.stateBytes))
	}
	event := "migrate %v to host%d (%s)"
	if warm {
		event = "migrate %v to host%d (%s, warm)"
	}
	s.Trace("GS", "1:migration-event", fmt.Sprintf(event, orig, dest, reason))
	src := int(srcHost.ID())
	s.ordered[orig] = src
	s.m.Daemon(src).SendCtl(src, ctlBytes, &pvm.CtlMsg{Kind: "mpvm", Payload: &migrateCmd{
		order: core.MigrationOrder{VP: orig, Dest: dest, Reason: reason}, orig: orig, warm: warm,
	}})
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

// onMigrateCmd (source mpvmd): stage 1 → mark the victim migrating and
// start stage 2 by flushing. An order gone stale on the wire is dropped: a
// task already moving settles through that migration, and a task that
// exited settles as an abort, so whoever commanded the move stops waiting.
func (s *System) onMigrateCmd(d *pvm.Daemon, cmd *migrateCmd) {
	_, outstanding := s.ordered[cmd.orig]
	delete(s.ordered, cmd.orig)
	mt, ok := s.tasks[cmd.orig]
	if !ok || mt.Exited() {
		if outstanding {
			s.Aborted(cmd.orig)
		}
		return
	}
	if mt.migrating {
		return
	}
	mt.migrating = true
	mig := &migration{order: cmd.order, orig: cmd.orig, srcHost: int(d.Host().ID()), start: s.m.Kernel().Now()}
	what := "flush message to all processes"
	if cmd.warm {
		mig.warm = true
		mig.wake = sim.NewCond(s.m.Kernel())
		what = "flush message to all processes (warm)"
	}
	s.startFlush(d, mig, what)
}

// startFlush (source mpvmd) opens the stage-2 barrier for mig over the
// hosts reachable now: every mpvmd is told to block sends to the task and
// acknowledge. A migration's flush and a checkpoint's (FlushAndHold) both
// start here; what is the trace detail that tells them apart.
func (s *System) startFlush(d *pvm.Daemon, mig *migration, what string) {
	mig.flush.Open(0, s.m.NHosts(), s.reachable)
	s.migrations[mig.orig] = mig
	s.Trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush", what)
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

// onFlushAck (source mpvmd): count a member's ack; a non-member's (a host
// unreachable at open, yet running) or a written-off one's counts nothing.
// MPVM's acks carry no generation: one counts toward whichever barrier is
// open for the task.
func (s *System) onFlushAck(d *pvm.Daemon, ack *flushAck) {
	mig, ok := s.migrations[ack.orig]
	if ok && mig.flush.Ack(mig.flush.Gen(), ack.host) {
		s.maybeFinishFlush(mig)
	}
}

// maybeFinishFlush completes the stage-2 barrier once every member has
// acknowledged or been written off. It is reached only from an ack or a
// write-off that counted (onFlushAck, NoteHostUnreachable), and nothing
// counts once the barrier is done, so it fires exactly once.
func (s *System) maybeFinishFlush(mig *migration) {
	if !mig.flush.Done() {
		return
	}
	d := s.m.Daemon(mig.srcHost)
	if d == nil {
		return
	}
	mt := s.tasks[mig.orig]
	if mt == nil || mt.Exited() {
		s.cancelMigration(mig.orig, d)
		return
	}
	if mig.held != nil {
		// Checkpoint flush: the network is quiescent around the task; wake
		// the FlushAndHold caller. The entry stays in s.migrations until
		// Release so senders remain blocked.
		s.Trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-complete", "all acks received; checkpoint may proceed")
		mig.held.Broadcast()
		return
	}
	if mig.warm {
		// Warm: the victim keeps running; a separate precopy proc streams
		// rounds beside it and freezes it only at cutover.
		s.Trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-complete", "all acks received; starting precopy")
		s.startPrecopy(mt, mig)
		return
	}
	// The signal interrupts the process at an arbitrary execution point; if
	// it is inside the run-time library (interrupts masked) the migration
	// is deferred until the library call completes.
	s.Trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-complete", "all acks received; signalling victim")
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
			// The transfer is a sequence of rounds, each a roundHeader and
			// its bytes, ending with the final one.
			for final := false; !final; {
				seg, err := conn.Recv(p)
				if err != nil {
					return
				}
				hdr, ok := seg.Payload.(*roundHeader)
				if !ok {
					return
				}
				for got := 0; got < hdr.bytes; {
					seg, err := conn.Recv(p)
					if err != nil {
						return
					}
					got += seg.Bytes
				}
				final = hdr.final
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
	s.Aborted(orig)
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

// abort abandons a migration whose destination failed (or whose transfer
// was interrupted) before the process image committed to it, and resumes
// the victim on the source host: restore a taken inbox, release a victim
// frozen at cutover, and cancel — the no-op restart broadcast unblocks
// every flush-stalled sender and the abort hooks fire. Safe at any point
// up to commit because the source copy of the process is only released
// after the skeleton confirms. A migration already cancelled underneath
// (victim exited, coordinator lost) has nothing further to unwind.
func (s *System) abort(mt *MTask, mig *migration, srcD *pvm.Daemon, inbox []*pvm.Message, why string) {
	if inbox != nil {
		mt.RestoreInbox(inbox)
	}
	mig.release()
	if s.gone(mt, mig) {
		return
	}
	s.Trace(mt.orig.String(), "3:abort", why+"; resuming on source host")
	mt.migrating = false
	s.cancelMigration(mt.orig, srcD)
}

// gone reports whether the migration was abandoned underneath the proc
// running its transfer (victim exited, coordinator lost, cancel broadcast).
func (s *System) gone(mt *MTask, mig *migration) bool {
	return mig.cancelled || mt.Exited() || s.migrations[mig.orig] != mig
}

// onMigrateSignal runs in the victim's own context (the transparently
// linked signal handler) when the migrate signal lands, and stops it there.
// Stop-and-copy sends the signal once flushing completes: the victim runs
// stages 3–4 itself, stopped for the whole transfer. Warm precopy sends it
// at cutover: the victim marks the freeze, wakes the precopy proc and
// waits until the proc releases it (after reintegration or abort). Either
// way its downtime starts now — unless the migration was cancelled while
// the signal was deferred, which leaves the victim nothing to stop for.
func (s *System) onMigrateSignal(mt *MTask, mig *migration) {
	p := mt.Proc()
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	if mig.cancelled || mig.released || s.migrations[mig.orig] != mig {
		return // the signal raced a cancellation; nothing to stop for
	}
	mig.frozen = p.Now()
	if !mig.warm {
		s.transfer(p, mt, mig, mt.Daemon())
		return
	}
	mig.victimFrozen = true
	mig.wake.Broadcast()
	for !mig.released {
		if err := mig.wake.Wait(p); err != nil {
			return
		}
	}
}

// transfer is stages 3–4 of both modes, run on p: open the transfer,
// stream the precopy rounds and freeze the victim (warm only; stop-and-copy
// is the zero-round case, its victim already stopped), then cut over.
// Stop-and-copy runs it on the victim's own proc, warm precopy on a proc
// beside the still-running victim. Which proc runs it orders the kernel's
// events; the helpers below do the same work either way.
func (s *System) transfer(p *sim.Proc, mt *MTask, mig *migration, srcD *pvm.Daemon) {
	conn, err := s.openTransfer(p, mt, srcD, mig.order.Dest)
	if err != nil {
		s.abort(mt, mig, srcD, nil, err.Error())
		return
	}
	resid := mt.stateBytes
	if mig.warm {
		var ok bool
		if resid, ok = s.precopy(p, mt, mig, srcD, conn); !ok {
			return
		}
	}
	s.cutover(p, mt, mig, srcD, conn, resid)
}

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
	s.Trace("skeleton", "3:skeleton-ready", fmt.Sprintf("listening on host%d:%d", destHost, ready.port))
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

// stream is stage 3b's wire loop: hdr announces one round of n bytes,
// which follow in transferChunk writes from srcHost.
func (s *System) stream(p *sim.Proc, conn *netsim.Conn, srcHost *cluster.Host, hdr *roundHeader, n int) error {
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

// cutover ends both modes with the victim stopped: take its inbox, stream
// the final round — resid bytes of state plus the buffered messages and
// register context — confirm, commit, and release a frozen victim, which
// resumes on the destination host.
func (s *System) cutover(p *sim.Proc, mt *MTask, mig *migration, srcD *pvm.Daemon, conn *netsim.Conn, resid int) {
	inbox, tail := takeInbox(mt)
	n := resid + tail
	sent, failed, mode := "%d bytes over TCP", "transfer to host%d failed: %v", core.MigrationCold
	if mig.warm {
		sent, failed, mode = "final delta %d bytes over TCP", "final delta to host%d failed: %v", core.MigrationWarm
	}
	s.Trace(mt.orig.String(), "3:state-transfer", fmt.Sprintf(sent, n))
	hdr := &roundHeader{orig: mt.orig, round: mig.rounds, bytes: n, final: true}
	if err := s.stream(p, conn, srcD.Host(), hdr, n); err != nil {
		conn.Close()
		s.abort(mt, mig, srcD, inbox, fmt.Sprintf(failed, mig.order.Dest, err))
		return
	}
	destD, err := s.confirm(p, conn, mig.order.Dest)
	if err != nil {
		s.abort(mt, mig, srcD, inbox, err.Error())
		return
	}
	s.commit(p, mt, mig, destD, inbox, core.MigrationRecord{
		StateBytes:   mig.precopyBytes + n,
		Mode:         mode,
		Rounds:       mig.rounds,
		PrecopyBytes: mig.precopyBytes,
	})
	mig.release()
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
// arrives carrying what only the cutover knows — bytes moved, mode, rounds
// — and is completed and appended here.
func (s *System) commit(p *sim.Proc, mt *MTask, mig *migration, destD *pvm.Daemon,
	inbox []*pvm.Message, rec core.MigrationRecord) {
	// The process image is committed to the destination: this is the end of
	// the obtrusiveness window on the source machine.
	mt.DetachFromHost()
	mig.offSource = p.Now()
	s.Trace(mt.orig.String(), "3:off-source", "process image off the source host")

	// Stage 4: the skeleton is now the process. Re-enroll with the new
	// mpvmd (fresh tid), restore buffered messages, broadcast restart.
	// Memory residency moves with the image.
	mt.Host().FreeMem(mt.memMB)
	mt.memMB = memMB(mt.stateBytes)
	_ = destD.Host().AllocMem(mt.memMB)
	oldTID := mt.Mytid()
	newTID := mt.AttachToHost(destD)
	s.Trace(mt.orig.String(), "4:restart", fmt.Sprintf("re-enrolled as %v; broadcasting restart", newTID))
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
	s.Trace(mt.orig.String(), "4:reintegrated", "resuming application execution")
	s.Placed(mt.orig, mig.order.Dest)
}
