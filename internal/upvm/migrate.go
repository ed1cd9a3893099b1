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
	s.Trace("GS", "1:migration-event", fmt.Sprintf("migrate ULP%d to host%d (%s)", ulpID, dest, reason))
	buf := core.NewBuffer().PkString("migrate").PkInt(ulpID).PkInt(dest).PkString(string(reason))
	msg := &pvm.Message{
		Src: core.DaemonTID(srcProc.host), Dst: srcProc.task.Mytid(),
		Tag: tagCtl, Buf: buf, SentAt: s.m.Kernel().Now(),
	}
	h := srcProc.Host()
	h.Iface().SendDgram(1, h.ID(), 1, msg.WireBytes(), msg)
	return nil
}

// onCtl handles UPVM protocol control messages at the dispatcher. Every
// field is unpacked, and the reader checked once, before anything acts on
// it: a truncated or mistyped message, or one naming a ULP or a host
// outside the application, is dropped whole, never read with its missing
// fields as zeros. An ack names its sender by the message's source tid,
// which carries the sending process's host.
func (p *Process) onCtl(src core.TID, r *core.Reader) {
	ulps, hosts := len(p.sys.ulps), len(p.sys.procs)
	switch op := r.UpkString(); op {
	case "migrate":
		ulpID, dest, reason := r.UpkIndex(ulps), r.UpkIndex(hosts), r.UpkString()
		if r.Err() != nil {
			return
		}
		p.startMigration(ulpID, dest, core.MigrationReason(reason))
	case "flush":
		ulpID, dest, srcHost, gen := r.UpkIndex(ulps), r.UpkIndex(hosts), r.UpkIndex(hosts), r.UpkInt()
		if r.Err() != nil {
			return
		}
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
		ack := core.NewBuffer().PkString("flush-ack").PkInt(ulpID).PkInt(gen)
		_ = p.task.Send(p.sys.procs[srcHost].task.Mytid(), tagCtl, ack) // lint:reason only this process's own exit fails a send, and then no migration needs the ack
	case "flush-ack", "accepted":
		ulpID, gen := r.UpkIndex(ulps), r.UpkInt()
		o := p.outbound[ulpID]
		if r.Err() != nil || o == nil {
			return
		}
		b := &o.flush
		if op == "accepted" {
			b = &o.accept
		}
		if b.Ack(gen, src.Host()) {
			o.wake.Broadcast()
		}
	case "arrived":
		// The placement marker has drained the dispatcher queue: every
		// message that arrived before the ULP was accepted has been
		// processed (and parked in pending), so the ULP can become visible
		// to the zero-copy hand-off path without reordering.
		u := p.sys.ulps[r.UpkIndex(ulps)]
		if r.Err() != nil || u.p != p {
			return
		}
		p.ulps[u.id] = u
		p.drainPending(u)
	}
}

// startMigration launches the library's migration helper; the dispatcher
// keeps processing messages (it must see the flush acks). An order for a
// ULP that is not here, or to the host it is on (a move Migrate refuses),
// is dropped.
func (p *Process) startMigration(ulpID, dest int, reason core.MigrationReason) {
	u, ok := p.ulps[ulpID]
	if !ok || dest == p.host {
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
	p.sys.Trace(fmt.Sprintf("proc%d", p.host), "1:context-captured", fmt.Sprintf("ULP%d suspended", u.id))

	// Stage 2: flush. Every other process updates its locator (future
	// messages go to the new host) and acknowledges that in-transit
	// messages for this ULP have drained.
	o := p.outbound[u.id]
	if o == nil {
		o = &outboundXfer{}
		o.wake.Init(p.sys.m.Kernel())
		p.outbound[u.id] = o
	}
	gen := o.flush.Gen() + 1
	o.flush.Open(gen, len(p.sys.procs), func(h int) bool { return h != p.host })
	p.flushPeers(mp, u.id, dest, &o.flush)
	p.sys.Trace(fmt.Sprintf("proc%d", p.host), "2:flush", "flush to all processes; new location published")
	// A crashed peer, or a live one behind a partition, drops the flush
	// silently and is never written off, so the wait is bounded: on expiry
	// the ULP reverts to the source instead of being lost to the barrier.
	done, err := p.await(mp, o, &o.flush, flushTimeout)
	if err != nil {
		return
	}
	if !done {
		p.abortFlush(mp, u, o)
		return
	}
	p.sys.Trace(fmt.Sprintf("proc%d", p.host), "2:flush-complete", "in-transit messages drained")

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
	o.accept.Open(gen, len(p.sys.procs), func(h int) bool { return h == dest })
	ackTimeout := sim.FromSeconds(float64(segBytes)/cfg.AcceptBps) + 2*flushTimeout
	for attempt := 0; !o.accept.Done(); attempt++ {
		if attempt > 0 {
			p.sys.Trace(fmt.Sprintf("proc%d", p.host), "3:retransmit",
				fmt.Sprintf("no accept ack for ULP%d; resending state", u.id))
		}
		if err := p.sendState(mp, destProc, u, inbox, segBytes, reason, start, gen); err != nil {
			return // this process's task exited: abandon, like an interrupted transfer
		}
		if attempt == 0 {
			p.sys.Trace(fmt.Sprintf("proc%d", p.host), "3:off-source", fmt.Sprintf("ULP%d state off-loaded (pkbyte/send)", u.id))
			// All ULP state is off the source host: the obtrusiveness
			// window ends here, even though the destination may not have
			// received everything (paper §4.2.2).
		}
		if _, err := p.await(mp, o, &o.accept, ackTimeout); err != nil {
			return
		}
	}
}

// flushPeers tells every other process that ulpID now lives on dest, under
// b's generation, and asks for an ack. A send fails only once this
// process's own task has exited (its host crashed): no ack can reach it,
// so the peer is written off.
func (p *Process) flushPeers(mp *sim.Proc, ulpID, dest int, b *core.Barrier) {
	for h, other := range p.sys.procs {
		if h == p.host {
			continue
		}
		buf := core.NewBuffer().PkString("flush").PkInt(ulpID).PkInt(dest).PkInt(p.host).PkInt(b.Gen())
		if err := p.task.SendAs(mp, other.task.Mytid(), tagCtl, buf); err != nil {
			b.WriteOff(h)
		}
	}
}

// await blocks mp until b, one of o's barriers, completes or timeout
// passes, and reports which. The migrator wakes on every counted ack and
// at the deadline; err is an interrupt.
func (p *Process) await(mp *sim.Proc, o *outboundXfer, b *core.Barrier, timeout sim.Time) (done bool, err error) {
	deadline := mp.Now() + timeout
	wake := p.sys.m.Kernel().ScheduleAt(deadline, o.wake.Broadcast)
	for !b.Done() {
		if mp.Now() >= deadline {
			return false, nil
		}
		if err := o.wake.Wait(mp); err != nil {
			return false, err
		}
	}
	wake.Cancel()
	return true, nil
}

// sendState streams one full copy of the ULP's state — header, segment
// chunks, unreceived inbox messages, fin — to the destination.
func (p *Process) sendState(mp *sim.Proc, destProc *Process, u *ULP, inbox []*UMessage,
	segBytes int, reason core.MigrationReason, start sim.Time, gen int) error {
	cfg := p.sys.cfg
	hdr := core.NewBuffer().PkString("hdr").PkInt(u.id).PkInt(segBytes).
		PkInt(len(inbox)).PkString(string(reason)).
		PkInt(int(start)).PkInt(p.host).PkInt(gen)
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
// a second flush round pointing back at the source retracts the published
// location (peers re-point and re-forward what they buffered for it). The
// closed barrier leaves late acks of either round inert. Messages the
// partition dropped are the application's to handle, like any lost
// datagram; the abort guarantees the ULP is never lost to the barrier.
func (p *Process) abortFlush(mp *sim.Proc, u *ULP, o *outboundXfer) {
	o.flush.Close()
	p.locator[u.id] = p.host
	// Best effort: a peer that misses the retraction keeps routing via the
	// stale location, and the re-pointed destination forwards those strays
	// back here.
	p.flushPeers(mp, u.id, p.host, &o.flush)
	have, want := o.flush.Counts()
	p.sys.Trace(fmt.Sprintf("proc%d", p.host), "2:flush-abort",
		fmt.Sprintf("flush barrier timed out (%d/%d acks); ULP%d reverted", have, want, u.id))
	p.sys.Aborted(u.id)
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

// onXfer assembles an inbound ULP at the destination dispatcher. Like
// onCtl, it drops a message whose fields do not all unpack or are out of
// range: a ULP id outside the application would panic in ULPTID. Only the
// header carries the migration's generation (settled drops a stream of
// another); the chunks, inbox messages and fin that follow it count only
// if they come from the header's sender.
func (p *Process) onXfer(t *pvm.Task, src core.TID, r *core.Reader) {
	ulps := len(p.sys.ulps)
	switch r.UpkString() {
	case "hdr":
		ulpID, segBytes := r.UpkIndex(ulps), r.UpkCount()
		r.UpkInt() // inbox message count; each follows as an inboxmsg
		reason, startNs, srcHost, gen := r.UpkString(), r.UpkInt(), r.UpkIndex(len(p.sys.procs)), r.UpkInt()
		if r.Err() != nil {
			return
		}
		if p.settled(p.sys.ulps[ulpID], srcHost, gen) {
			return
		}
		// A fresh header restarts any partial inbound from a lost attempt.
		p.inbound[ulpID] = &inboundXfer{
			total: segBytes,
			gen:   gen,
			src:   src,
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
	case "chunk":
		ulpID, n := r.UpkIndex(ulps), r.UpkVirtual()
		if ix, ok := p.inbound[ulpID]; ok && ix.src == src && r.Err() == nil {
			ix.got += n
		}
	case "inboxmsg":
		ulpID, srcID, tag, inner := r.UpkIndex(ulps), r.UpkIndex(ulps), r.UpkInt(), r.UpkBuffer()
		if ix, ok := p.inbound[ulpID]; ok && ix.src == src && r.Err() == nil {
			ix.inboxMsgs = append(ix.inboxMsgs, &UMessage{Src: ULPTID(srcID), Tag: tag, Buf: inner})
			ix.rec.StateBytes += inner.Bytes()
		}
	case "fin":
		ulpID, offNs := r.UpkIndex(ulps), r.UpkInt()
		ix, ok := p.inbound[ulpID]
		if !ok || ix.src != src || r.Err() != nil {
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
	if p.settled(u, ix.rec.From, ix.gen) {
		return
	}
	cost := sim.FromSeconds(float64(ix.total) / p.sys.cfg.AcceptBps)
	if err := t.Proc().Sleep(cost); err != nil {
		return
	}
	if p.settled(u, ix.rec.From, ix.gen) {
		// Another attempt's accept committed while this one slept.
		return
	}
	u.p = p
	p.locator[ulpID] = p.host
	p.sys.Placed(ulpID, p.host)
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
	p.sys.Trace(fmt.Sprintf("proc%d", p.host), "4:enqueued", fmt.Sprintf("ULP%d placed in its reserved region and scheduled", ulpID))
	ix.rec.Reintegrated = p.sys.m.Kernel().Now()
	p.sys.Record(ix.rec)
	p.sendAccepted(ulpID, ix.rec.From, ix.gen)
}

// settled reports whether a transfer of u from srcHost under generation
// gen must not be accepted: it is not the stream of the migration under
// way — there is none, or it comes from another source or carries another
// generation (a forged header, or a late retransmission of an earlier
// migration's stream). If u was accepted here, by this attempt's stream or
// an earlier one, the accept ack was lost: re-ack, so there is exactly one
// accept and one record. Otherwise the transfer is dropped.
func (p *Process) settled(u *ULP, srcHost, gen int) bool {
	if u.migrating {
		o := u.p.outbound[u.id]
		return srcHost != u.p.host || o == nil || gen != o.flush.Gen()
	}
	if u.p == p {
		p.sendAccepted(u.id, srcHost, gen)
	}
	return true
}

// sendAccepted confirms a committed (or already-committed) accept to the
// source, ending its retransmission loop.
func (p *Process) sendAccepted(ulpID, srcHost, gen int) {
	buf := core.NewBuffer().PkString("accepted").PkInt(ulpID).PkInt(gen)
	_ = p.task.Send(p.sys.procs[srcHost].task.Mytid(), tagCtl, buf) // lint:reason a lost ack is covered by the source's retransmission loop
}
