package upvm

import (
	"fmt"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// ULP is a User Level Process: the paper's light-weight, independently
// migratable virtual processor. ULP implements core.VP, so application code
// written for PVM tasks runs on ULPs unchanged (the paper's source-code
// compatible interface).
type ULP struct {
	sys  *System
	id   int
	spec ULPSpec
	p    *Process // current containing process
	proc *sim.Proc

	inbox     []*UMessage
	inboxCond sim.Cond

	migrating  bool
	parked     bool // suspended for migration (state capture may proceed)
	parkCond   sim.Cond
	resumeCond sim.Cond
	done       bool

	// stats
	localMsgs, remoteMsgs int
}

var _ core.VP = (*ULP)(nil)

// migPause is the interrupt reason used to park a ULP during migration.
type migPause struct{}

func newULP(s *System, rank int, spec ULPSpec, body func(*ULP, int)) *ULP {
	u := &ULP{sys: s, id: rank, spec: spec}
	u.inboxCond.Init(s.m.Kernel())
	u.parkCond.Init(s.m.Kernel())
	u.resumeCond.Init(s.m.Kernel())
	if _, err := s.space.Reserve(rank, spec.StateBytes()); err != nil {
		panic(fmt.Sprintf("upvm: %v", err))
	}
	u.proc = s.m.Kernel().Spawn(fmt.Sprintf("ulp%d", rank), func(p *sim.Proc) {
		body(u, rank)
		u.done = true
		s.Placed(u.id, -1)
		u.parkCond.Broadcast() // unblock a migrator waiting for the park
		if u.p != nil {
			u.p.release(u)
		}
	})
	return u
}

// --- identity ------------------------------------------------------------------

// Mytid returns the ULP's stable tid (never changes, even across
// migrations — in UPVM the tid names the ULP itself).
func (u *ULP) Mytid() core.TID { return ULPTID(u.id) }

// Proc returns the ULP's thread of control.
func (u *ULP) Proc() *sim.Proc { return u.proc }

// Host returns the workstation the ULP currently executes on.
func (u *ULP) Host() *cluster.Host { return u.p.Host() }

// Done reports whether the ULP's body has returned.
func (u *ULP) Done() bool { return u.done }

// Migrating reports whether the ULP is mid-migration.
func (u *ULP) Migrating() bool { return u.migrating }

// --- pause/park ------------------------------------------------------------------

// checkPause handles an interrupt: migration pauses park the ULP until the
// transfer completes and then resume transparently (returning nil); any
// other interrupt surfaces to the caller.
func (u *ULP) checkPause(err error) error {
	ie, ok := sim.IsInterrupted(err)
	if !ok {
		return err
	}
	if _, isPause := ie.Reason.(migPause); !isPause {
		return err
	}
	u.waitResume()
	return nil
}

func (u *ULP) waitResume() {
	u.proc.MaskInterrupts()
	defer u.proc.UnmaskInterrupts()
	// The ULP is now suspended: its context is capturable. Tell the
	// migrator, which waits for this before snapshotting state.
	u.parked = true
	u.parkCond.Broadcast()
	for u.migrating {
		u.resumeCond.Wait(u.proc)
	}
	u.parked = false
}

// --- messaging -------------------------------------------------------------------

// deliver appends a message to the inbox (library context).
func (u *ULP) deliver(msg *UMessage) {
	u.inbox = append(u.inbox, msg)
	if msg.Local {
		u.localMsgs++
	} else {
		u.remoteMsgs++
	}
	u.inboxCond.Broadcast()
}

// Send delivers buf to the ULP named dst. Same-process destinations get the
// zero-copy hand-off; remote destinations are wrapped with the UPVM routing
// header and ride the process's PVM channel.
func (u *ULP) Send(dst core.TID, tag int, buf *core.Buffer) error {
	for {
		if err := u.p.acquire(u); err != nil {
			if err = u.checkPause(err); err != nil {
				return err
			}
			continue
		}
		break
	}
	dstID, ok := ULPFromTID(dst)
	if !ok {
		return fmt.Errorf("%w: %v is not a ULP tid", ErrUnknownULP, dst)
	}
	if _, exists := u.sys.ulps[dstID]; !exists {
		return fmt.Errorf("%w: %d", ErrUnknownULP, dstID)
	}
	p := u.p
	if local, isHere := p.ulps[dstID]; isHere {
		// Buffer hand-off: the library passes the message buffer straight
		// to the destination ULP — no copy (paper §4.2.1).
		u.sys.m.ChargeCPU(u.proc, p.Host(), handoffCost)
		local.deliver(&UMessage{Src: u.Mytid(), Tag: tag, Buf: buf, Local: true})
		return nil
	}
	h, ok := p.locate(dstID)
	if !ok {
		return fmt.Errorf("%w: %d (no location)", ErrUnknownULP, dstID)
	}
	dstProc := u.sys.procs[h]
	wrapped := core.NewBuffer().
		PkInt(u.id).PkInt(dstID).PkInt(tag).
		PkVirtual(remoteHeaderBytes).
		PkBuffer(buf)
	return p.task.SendAs(u.proc, dstProc.task.Mytid(), tagData, wrapped)
}

// Recv blocks until a message matching src and tag is in the ULP's inbox.
// While blocked, the ULP is descheduled: it releases the run token so
// another runnable ULP of the same process executes (the paper's library
// scheduling). A ULP that reaches a receive while its migration is under
// way (the capture interrupt still pending) parks at the entry.
func (u *ULP) Recv(src core.TID, tag int) (core.TID, int, *core.Reader, error) {
	if u.migrating {
		u.p.release(u)
		u.waitResume()
	}
	for {
		if err := u.p.acquire(u); err != nil {
			if err = u.checkPause(err); err != nil {
				return core.NoTID, 0, nil, err
			}
			continue
		}
		for i, msg := range u.inbox {
			if (src == core.AnyTID || msg.Src == src) && (tag == core.AnyTag || msg.Tag == tag) {
				u.inbox = append(u.inbox[:i], u.inbox[i+1:]...)
				msg.rd.Reset(msg.Buf)
				return msg.Src, msg.Tag, &msg.rd, nil
			}
		}
		u.p.release(u) // deschedule while blocked on receive
		err := u.inboxCond.Wait(u.proc)
		if err != nil {
			if err = u.checkPause(err); err != nil {
				return core.NoTID, 0, nil, err
			}
		}
	}
}

// NRecv is the non-blocking receive.
func (u *ULP) NRecv(src core.TID, tag int) (core.TID, int, *core.Reader, bool, error) {
	if err := u.p.acquire(u); err != nil {
		if err = u.checkPause(err); err != nil {
			return core.NoTID, 0, nil, false, err
		}
	}
	for i, msg := range u.inbox {
		if (src == core.AnyTID || msg.Src == src) && (tag == core.AnyTag || msg.Tag == tag) {
			u.inbox = append(u.inbox[:i], u.inbox[i+1:]...)
			msg.rd.Reset(msg.Buf)
			return msg.Src, msg.Tag, &msg.rd, true, nil
		}
	}
	return core.NoTID, 0, nil, false, nil
}

// Compute burns application work on the current host. Non-preemptive: the
// ULP keeps the run token for the whole burst unless a migration pauses it,
// in which case the remaining work resumes on the destination host.
func (u *ULP) Compute(flops float64) error {
	remaining := flops
	for remaining > 0 {
		if err := u.p.acquire(u); err != nil {
			if err = u.checkPause(err); err != nil {
				return err
			}
			continue
		}
		rem, err := u.p.Host().CPU().Compute(u.proc, remaining)
		if err == nil {
			return nil
		}
		remaining = rem
		u.p.release(u)
		if err = u.checkPause(err); err != nil {
			return err
		}
	}
	return nil
}
