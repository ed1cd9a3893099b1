package upvm

import (
	"fmt"

	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Migrate orders ULP ulpID moved to the dest host (paper §2.2, Figure 3).
// The command travels as a message addressed directly to the process
// containing the ULP, which is how the UPVM GS initiates migrations.
func (s *System) Migrate(ulpID, dest int, reason core.MigrationReason) error {
	u, ok := s.ulps[ulpID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownULP, ulpID)
	}
	if u.migrating {
		return fmt.Errorf("%w: %d", ErrMoving, ulpID)
	}
	if dest < 0 || dest >= len(s.procs) {
		return fmt.Errorf("upvm: no host %d", dest)
	}
	srcProc := u.p
	if srcProc.host == dest {
		return fmt.Errorf("%w: ulp %d on host %d", ErrSameHost, ulpID, dest)
	}
	if !srcProc.Host().MigrationCompatible(s.procs[dest].Host()) {
		return fmt.Errorf("%w: %s → %s", ErrIncompatible,
			srcProc.Host().Arch(), s.procs[dest].Host().Arch())
	}
	s.trace("GS", "1:migration-event", fmt.Sprintf("migrate ULP%d to host%d (%s)", ulpID, dest, reason))
	buf := core.NewBuffer().PkString("migrate").PkInt(ulpID).PkInt(dest).PkString(string(reason))
	msg := &pvm.Message{
		Src: core.DaemonTID(srcProc.host), Dst: srcProc.task.Mytid(),
		Tag: tagCtl, Buf: buf, SentAt: s.m.Kernel().Now(),
	}
	h := srcProc.Host()
	h.Iface().SendDgram(1, h.ID(), 1, msg.WireBytes(), msg)
	return nil
}

// onCtl handles UPVM protocol control messages at the dispatcher.
func (p *Process) onCtl(t *pvm.Task, r *core.Reader) {
	op, err := r.UpkString()
	if err != nil {
		return
	}
	switch op {
	case "migrate":
		ulpID, _ := r.UpkInt()
		dest, _ := r.UpkInt()
		reason, _ := r.UpkString()
		p.startMigration(ulpID, dest, core.MigrationReason(reason))
	case "flush":
		ulpID, _ := r.UpkInt()
		dest, _ := r.UpkInt()
		srcHost, _ := r.UpkInt()
		seq, _ := r.UpkInt()
		// Future messages for this ULP go straight to the new host —
		// UPVM's contrast with MPVM's sender blocking.
		p.locator[ulpID] = dest
		if dest != p.host {
			// The ULP is headed elsewhere (including an abort revert
			// pointing back at the source): anything held here for it
			// follows the new location instead of rotting in pending.
			if msgs := p.pending[ulpID]; len(msgs) > 0 {
				delete(p.pending, ulpID)
				for _, msg := range msgs {
					p.forward(ulpID, msg)
				}
			}
		}
		ack := core.NewBuffer().PkString("flush-ack").PkInt(ulpID).PkInt(seq)
		if err := p.task.Send(p.sys.procs[srcHost].task.Mytid(), tagCtl, ack); err != nil {
			return // source process gone: the migration it was running died with it
		}
	case "flush-ack":
		ulpID, _ := r.UpkInt()
		seq, _ := r.UpkInt()
		if fs, ok := p.flushWait[ulpID]; ok && fs.seq == seq {
			fs.have++
			fs.cond.Broadcast()
		}
	case "accepted":
		ulpID, _ := r.UpkInt()
		seq, _ := r.UpkInt()
		if as, ok := p.ackWait[ulpID]; ok && as.seq == seq {
			as.have++
			as.cond.Broadcast()
		}
	case "arrived":
		// The placement marker has drained the dispatcher queue: every
		// message that arrived before the ULP was accepted has been
		// processed (and parked in pending), so the ULP can become visible
		// to the zero-copy hand-off path without reordering.
		ulpID, _ := r.UpkInt()
		u, ok := p.sys.ulps[ulpID]
		if !ok || u.p != p {
			return
		}
		p.ulps[ulpID] = u
		p.drainPending(u)
	}
}

// startMigration launches the library's migration helper; the dispatcher
// keeps processing messages (it must see the flush acks).
func (p *Process) startMigration(ulpID, dest int, reason core.MigrationReason) {
	u, ok := p.ulps[ulpID]
	if !ok {
		return
	}
	start := p.sys.m.Kernel().Now()
	p.sys.m.Kernel().Spawn(fmt.Sprintf("upvm-mig(%d)", ulpID), func(mp *sim.Proc) {
		p.runMigration(mp, u, dest, reason, start)
	})
}

// runMigration executes the four stages from the source side.
func (p *Process) runMigration(mp *sim.Proc, u *ULP, dest int, reason core.MigrationReason, start sim.Time) {
	cfg := p.sys.cfg
	destProc := p.sys.procs[dest]

	// Stage 1: capture. The ULP is interrupted and parks at its next
	// blocking point; it is removed from the local table at once so no new
	// local deliveries reach it.
	u.migrating = true
	delete(p.ulps, u.id)
	p.locator[u.id] = dest
	u.proc.Interrupt(migPause{})
	p.sys.trace(fmt.Sprintf("proc%d", p.host), "1:context-captured", fmt.Sprintf("ULP%d suspended", u.id))

	// Stage 2: flush. Every other process updates its locator (future
	// messages go to the new host) and acknowledges that in-transit
	// messages for this ULP have drained.
	p.flushSeq++
	fs := &flushState{want: len(p.sys.procs) - 1, seq: p.flushSeq, cond: sim.NewCond(p.sys.m.Kernel())}
	p.flushWait[u.id] = fs
	for h, other := range p.sys.procs {
		if h == p.host {
			continue
		}
		buf := core.NewBuffer().PkString("flush").PkInt(u.id).PkInt(dest).PkInt(p.host).PkInt(fs.seq)
		if err := p.task.SendAs(mp, other.task.Mytid(), tagCtl, buf); err != nil {
			// A dead peer holds no in-transit messages to drain; its ack
			// will never come, so it leaves the barrier.
			fs.want--
		}
	}
	p.sys.trace(fmt.Sprintf("proc%d", p.host), "2:flush", "flush to all processes; new location published")
	// A live-but-partitioned peer fails the barrier differently from a
	// dead one: the flush datagram is dropped silently, the send above
	// succeeds, and the ack never comes. The wait is therefore bounded;
	// on expiry the migration aborts and the captured ULP reverts to the
	// source rather than being lost to a wedged barrier.
	deadline := mp.Now() + flushTimeout
	wake := p.sys.m.Kernel().ScheduleAt(deadline, fs.cond.Broadcast)
	for fs.have < fs.want {
		if mp.Now() >= deadline {
			p.abortFlush(mp, u, fs)
			return
		}
		if err := fs.cond.Wait(mp); err != nil {
			return
		}
	}
	wake.Cancel()
	delete(p.flushWait, u.id)
	p.sys.trace(fmt.Sprintf("proc%d", p.host), "2:flush-complete", "in-transit messages drained")

	// Wait until the ULP is actually suspended (it parks at its next
	// blocking point): capturing its state while it runs would tear the
	// inbox and register context.
	for !u.parked && !u.done {
		if err := u.parkCond.Wait(mp); err != nil {
			return
		}
	}
	if u.done {
		// The ULP finished before it could be captured: abandon the
		// migration; there is no state left to move.
		u.migrating = false
		return
	}

	// Stage 3: state transfer via the pvm_pkbyte/pvm_send sequence. The
	// fitted XferBps models the prototype's extra copies and per-send
	// overhead. Unreceived messages are collected and sent in a separate
	// operation (paper §4.2.2).
	//
	// The barrier passed, so every peer was reachable moments ago — but a
	// partition can still open mid-transfer and silently swallow chunks,
	// the fin, or the destination's accept ack. The transfer is therefore
	// at-least-once: the source retransmits until the destination confirms
	// acceptance (which is idempotent — exactly one accept, exactly one
	// record), so a partition that heals can only delay a hand-off, never
	// strand the captured ULP in limbo.
	inbox := u.inbox
	u.inbox = nil
	segBytes := u.spec.StateBytes()
	as := &flushState{want: 1, seq: fs.seq, cond: sim.NewCond(p.sys.m.Kernel())}
	p.ackWait[u.id] = as
	ackTimeout := sim.FromSeconds(float64(segBytes)/cfg.AcceptBps) + 2*flushTimeout
	for attempt := 0; as.have < as.want; attempt++ {
		if attempt > 0 {
			p.sys.trace(fmt.Sprintf("proc%d", p.host), "3:retransmit",
				fmt.Sprintf("no accept ack for ULP%d; resending state", u.id))
		}
		if err := p.sendState(mp, destProc, u, inbox, segBytes, reason, start, fs.seq); err != nil {
			delete(p.ackWait, u.id)
			return // destination gone: abandon, like an interrupted transfer
		}
		if attempt == 0 {
			p.sys.trace(fmt.Sprintf("proc%d", p.host), "3:off-source", fmt.Sprintf("ULP%d state off-loaded (pkbyte/send)", u.id))
			// All ULP state is off the source host: the obtrusiveness
			// window ends here, even though the destination may not have
			// received everything (paper §4.2.2).
		}
		deadline := mp.Now() + ackTimeout
		wake := p.sys.m.Kernel().ScheduleAt(deadline, as.cond.Broadcast)
		for as.have < as.want && mp.Now() < deadline {
			if err := as.cond.Wait(mp); err != nil {
				return
			}
		}
		wake.Cancel()
	}
	delete(p.ackWait, u.id)
}

// sendState streams one full copy of the ULP's state — header, segment
// chunks, unreceived inbox messages, fin — to the destination.
func (p *Process) sendState(mp *sim.Proc, destProc *Process, u *ULP, inbox []*UMessage,
	segBytes int, reason core.MigrationReason, start sim.Time, seq int) error {
	cfg := p.sys.cfg
	hdr := core.NewBuffer().PkString("hdr").PkInt(u.id).PkInt(segBytes).
		PkInt(len(inbox)).PkString(string(reason)).
		PkInt(int(start)).PkInt(p.host).PkInt(seq)
	if err := p.task.SendAs(mp, destProc.task.Mytid(), tagXfer, hdr); err != nil {
		return err
	}
	remaining := segBytes
	for remaining > 0 {
		chunk := remaining
		if chunk > xferChunk {
			chunk = xferChunk
		}
		if err := mp.Sleep(sim.FromSeconds(float64(chunk) / cfg.XferBps)); err != nil {
			return err
		}
		buf := core.NewBuffer().PkString("chunk").PkInt(u.id).PkVirtual(chunk)
		if err := p.task.SendAs(mp, destProc.task.Mytid(), tagXfer, buf); err != nil {
			return err
		}
		remaining -= chunk
	}
	for _, msg := range inbox {
		if err := mp.Sleep(sim.FromSeconds(float64(msg.Buf.Bytes()) / cfg.XferBps)); err != nil {
			return err
		}
		srcID, _ := ULPFromTID(msg.Src)
		buf := core.NewBuffer().PkString("inboxmsg").PkInt(u.id).
			PkInt(srcID).PkInt(msg.Tag).PkBuffer(msg.Buf)
		if err := p.task.SendAs(mp, destProc.task.Mytid(), tagXfer, buf); err != nil {
			return err
		}
	}
	fin := core.NewBuffer().PkString("fin").PkInt(u.id).PkInt(int(mp.Now()))
	return p.task.SendAs(mp, destProc.task.Mytid(), tagXfer, fin)
}

// abortFlush reverts a captured ULP after the flush barrier times out.
// The ULP rejoins the source process's table and resumes where it parked;
// the location published in stage 1 is retracted by a second flush round
// pointing back at the source (peers that heard the original re-point and
// re-forward anything they buffered for the ULP). Acks from either round
// can still arrive after the abort — the deleted flushWait entry and the
// barrier seq make them inert. Messages dropped by the partition itself
// are the application's to handle, like any lost datagram; what the abort
// guarantees is that the ULP is never lost to a wedged barrier.
func (p *Process) abortFlush(mp *sim.Proc, u *ULP, fs *flushState) {
	delete(p.flushWait, u.id)
	p.locator[u.id] = p.host
	for h, other := range p.sys.procs {
		if h == p.host {
			continue
		}
		buf := core.NewBuffer().PkString("flush").PkInt(u.id).PkInt(p.host).PkInt(p.host).PkInt(fs.seq)
		// Best effort: a peer that misses the retraction keeps routing
		// via the stale location, and the re-pointed destination forwards
		// those strays back here.
		_ = p.task.SendAs(mp, other.task.Mytid(), tagCtl, buf) // lint:reason best-effort retraction: an unreachable peer self-corrects via the destination's forwarding
	}
	p.sys.trace(fmt.Sprintf("proc%d", p.host), "2:flush-abort",
		fmt.Sprintf("flush barrier timed out (%d/%d acks); ULP%d reverted", fs.have, fs.want, u.id))
	if u.done {
		u.migrating = false
		return
	}
	p.ulps[u.id] = u
	p.drainPending(u)
	u.migrating = false
	u.resumeCond.Broadcast()
	u.inboxCond.Broadcast()
}

// onXfer assembles an inbound ULP at the destination dispatcher.
func (p *Process) onXfer(t *pvm.Task, r *core.Reader) {
	op, err := r.UpkString()
	if err != nil {
		return
	}
	switch op {
	case "hdr":
		ulpID, _ := r.UpkInt()
		segBytes, _ := r.UpkInt()
		nInbox, _ := r.UpkInt()
		reason, _ := r.UpkString()
		startNs, _ := r.UpkInt()
		srcHost, _ := r.UpkInt()
		seq, _ := r.UpkInt()
		if u := p.sys.ulps[ulpID]; u != nil && u.p == p && !u.migrating {
			// A retransmission for a ULP already accepted here: the accept
			// ack was lost. Re-ack and discard the duplicate stream.
			p.sendAccepted(ulpID, srcHost, seq)
			return
		}
		// A fresh header restarts any partial inbound from a lost attempt.
		p.inbound[ulpID] = &inboundXfer{
			total: segBytes,
			seq:   seq,
			rec: core.MigrationRecord{
				VP:         ULPTID(ulpID),
				NewTID:     ULPTID(ulpID),
				From:       srcHost,
				To:         p.host,
				Reason:     core.MigrationReason(reason),
				Start:      sim.Time(startNs),
				StateBytes: segBytes,
			},
		}
		_ = nInbox
	case "chunk":
		ulpID, _ := r.UpkInt()
		n, _ := r.UpkVirtual()
		if ix, ok := p.inbound[ulpID]; ok {
			ix.got += n
		}
	case "inboxmsg":
		ulpID, _ := r.UpkInt()
		srcID, _ := r.UpkInt()
		tag, _ := r.UpkInt()
		inner, _ := r.UpkBuffer()
		if ix, ok := p.inbound[ulpID]; ok {
			ix.inboxMsgs = append(ix.inboxMsgs, &UMessage{
				Src: ULPTID(srcID), Dst: ULPTID(ulpID), Tag: tag, Buf: inner,
				SentAt: p.sys.m.Kernel().Now(),
			})
			ix.rec.StateBytes += inner.Bytes()
		}
	case "fin":
		ulpID, _ := r.UpkInt()
		offNs, _ := r.UpkInt()
		ix, ok := p.inbound[ulpID]
		if !ok {
			return
		}
		delete(p.inbound, ulpID)
		ix.rec.OffSource = sim.Time(offNs)
		p.acceptULP(t, ulpID, ix)
	}
}

// acceptULP runs the destination-side accept mechanism: placing the ULP's
// segments into its reserved region and re-linking library structures. The
// paper measured this prototype step as surprisingly slow (6.88 s migration
// vs 1.67 s obtrusiveness for 0.6 MB); AcceptBps preserves that behaviour.
func (p *Process) acceptULP(t *pvm.Task, ulpID int, ix *inboundXfer) {
	u := p.sys.ulps[ulpID]
	if u == nil {
		return
	}
	if !u.migrating && u.p == p {
		// A duplicate fin: an earlier attempt's accept already committed.
		// Accept exactly once — and exactly one record — just re-ack.
		p.sendAccepted(ulpID, ix.rec.From, ix.seq)
		return
	}
	cost := sim.FromSeconds(float64(ix.total) / p.sys.cfg.AcceptBps)
	if err := t.Proc().Sleep(cost); err != nil {
		return
	}
	if !u.migrating && u.p == p {
		// Another attempt's accept committed while this one slept.
		p.sendAccepted(ulpID, ix.rec.From, ix.seq)
		return
	}
	u.p = p
	p.locator[ulpID] = p.host
	p.sys.notePlaced(ulpID, p.host)
	u.inbox = append(u.inbox, ix.inboxMsgs...)
	// The ULP is NOT yet visible to the same-process hand-off fast path:
	// messages already queued at this process's PVM inbox must be
	// dispatched first or a fresh hand-off would overtake them. A loopback
	// marker ("arrived") queued behind them finalizes the placement.
	marker := core.NewBuffer().PkString("arrived").PkInt(ulpID)
	msg := &pvm.Message{
		Src: p.task.Mytid(), Dst: p.task.Mytid(), Tag: tagCtl,
		Buf: marker, SentAt: p.sys.m.Kernel().Now(),
	}
	h := p.Host()
	h.Iface().SendDgram(1, h.ID(), 1, msg.WireBytes(), msg)
	u.migrating = false
	u.resumeCond.Broadcast()
	u.inboxCond.Broadcast()
	// The ULP is on the destination scheduler's run queue: migration ends.
	p.sys.trace(fmt.Sprintf("proc%d", p.host), "4:enqueued", fmt.Sprintf("ULP%d placed in its reserved region and scheduled", ulpID))
	ix.rec.Reintegrated = p.sys.m.Kernel().Now()
	p.sys.records = append(p.sys.records, ix.rec)
	p.sendAccepted(ulpID, ix.rec.From, ix.seq)
}

// sendAccepted confirms a committed (or already-committed) accept to the
// source, ending its retransmission loop.
func (p *Process) sendAccepted(ulpID, srcHost, seq int) {
	buf := core.NewBuffer().PkString("accepted").PkInt(ulpID).PkInt(seq)
	_ = p.task.Send(p.sys.procs[srcHost].task.Mytid(), tagCtl, buf) // lint:reason a lost ack is covered by the source's retransmission loop
}
