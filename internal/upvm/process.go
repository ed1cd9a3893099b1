package upvm

import (
	"fmt"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Process is one UPVM Unix process: the per-host container that holds ULPs,
// runs the library scheduler (run token + context switches), dispatches
// incoming PVM messages to ULP inboxes, and executes the migration
// protocol.
type Process struct {
	sys  *System
	host int
	task *pvm.Task

	ulps map[int]*ULP

	// locator is this process's view of where every ULP lives; updated by
	// flush messages the moment a migration starts (future messages go
	// straight to the new host).
	locator map[int]int

	// pending buffers messages for ULPs announced as moving here but not
	// yet arrived.
	pending map[int][]*UMessage

	// The non-preemptive run token: at most one local ULP executes at a
	// time (a process is one Unix job to the host scheduler).
	holder  *ULP
	lastRun *ULP
	tokenCh *sim.Cond

	// in-progress inbound ULP transfers, by ulp id.
	inbound map[int]*inboundXfer

	// flush bookkeeping for migrations this process initiated.
	flushWait map[int]*flushState
	// flushSeq numbers flush barriers started by this process.
	flushSeq int
	// ackWait holds the accept-ack waits of in-flight state transfers this
	// process initiated (want is always 1: the destination's confirmation).
	ackWait map[int]*flushState
}

type flushState struct {
	want, have int
	// seq identifies this barrier generation: an ack carrying a stale seq
	// (from a barrier that already timed out and aborted) must not be
	// counted toward a later barrier for the same ULP.
	seq  int
	cond *sim.Cond
}

type inboundXfer struct {
	total, got int
	// seq is the sending migration's barrier generation, echoed in the
	// accept ack so the source matches it to the right transfer.
	seq       int
	inboxMsgs []*UMessage
	rec       core.MigrationRecord
}

// UMessage is a ULP-to-ULP message.
type UMessage struct {
	Src, Dst core.TID // ULP tids
	Tag      int
	Buf      *core.Buffer
	SentAt   sim.Time
	Local    bool // delivered by hand-off
}

func newProcess(s *System, host int, name string) (*Process, error) {
	p := &Process{
		sys:       s,
		host:      host,
		ulps:      make(map[int]*ULP),
		locator:   make(map[int]int),
		pending:   make(map[int][]*UMessage),
		inbound:   make(map[int]*inboundXfer),
		flushWait: make(map[int]*flushState),
		ackWait:   make(map[int]*flushState),
	}
	p.tokenCh = sim.NewCond(s.m.Kernel())
	task, err := s.m.Spawn(host, fmt.Sprintf("%s-upvm", name), p.dispatch)
	if err != nil {
		return nil, err
	}
	p.task = task
	return p, nil
}

// Host returns the workstation the process runs on.
func (p *Process) Host() *cluster.Host { return p.task.Host() }

// NumULPs returns the number of ULPs currently resident.
func (p *Process) NumULPs() int { return len(p.ulps) }

func (p *Process) addULP(u *ULP) {
	p.ulps[u.id] = u
	u.p = p
	// Initial placement is known globally: the SPMD loader distributes
	// ULPs before the application runs.
	for h := range p.sys.procs {
		p.sys.procs[h].locator[u.id] = p.host
	}
	p.sys.notePlaced(u.id, p.host)
}

// locate returns the host this process believes the ULP is on.
func (p *Process) locate(ulpID int) (int, bool) {
	h, ok := p.locator[ulpID]
	return h, ok
}

// --- run token ---------------------------------------------------------------

// acquire gives u the run token, blocking until it is free. A context
// switch (register save/restore) is charged when the token changes hands.
func (p *Process) acquire(u *ULP) error {
	for p.holder != nil && p.holder != u {
		if err := p.tokenCh.Wait(u.proc); err != nil {
			return err
		}
	}
	if p.holder == u {
		return nil
	}
	p.holder = u
	if p.lastRun != u {
		p.lastRun = u
		p.sys.m.ChargeCPU(u.proc, p.Host(), ctxSwitch)
	}
	return nil
}

// release frees the run token if u holds it.
func (p *Process) release(u *ULP) {
	if p.holder == u {
		p.holder = nil
		p.tokenCh.Signal()
	}
}

// --- message dispatch ----------------------------------------------------------

// dispatch is the process's PVM receive loop: the UPVM library's
// asynchronous message handling, routing wrapped application messages to
// ULP inboxes and handling protocol messages.
func (p *Process) dispatch(t *pvm.Task) {
	for {
		_, tag, r, err := t.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return
		}
		switch tag {
		case tagData:
			p.onData(r)
		case tagCtl:
			p.onCtl(t, r)
		case tagXfer:
			p.onXfer(t, r)
		default:
			// Not a UPVM message: ignore.
		}
	}
}

// onData unwraps a remote application message and delivers it.
func (p *Process) onData(r *core.Reader) {
	srcID, err1 := r.UpkInt()
	dstID, err2 := r.UpkInt()
	appTag, err3 := r.UpkInt()
	_, err4 := r.UpkVirtual() // the UPVM routing header
	inner, err5 := r.UpkBuffer()
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
		return
	}
	msg := &UMessage{
		Src: ULPTID(srcID), Dst: ULPTID(dstID), Tag: appTag,
		Buf: inner, SentAt: p.sys.m.Kernel().Now(),
	}
	p.deliverLocal(dstID, msg)
}

// deliverLocal places a message in a resident ULP's inbox, buffers it for a
// ULP that is on its way here, or forwards it if the ULP lives elsewhere.
func (p *Process) deliverLocal(dstID int, msg *UMessage) {
	if u, ok := p.ulps[dstID]; ok {
		u.deliver(msg)
		return
	}
	if h, ok := p.locator[dstID]; ok && h == p.host {
		// Announced as migrating to this host but not arrived: hold.
		p.pending[dstID] = append(p.pending[dstID], msg)
		return
	}
	// Stale delivery: forward to where we believe it lives now.
	p.forward(dstID, msg)
}

func (p *Process) forward(dstID int, msg *UMessage) {
	h, ok := p.locator[dstID]
	if !ok || h == p.host {
		// Unknown or believed-local-but-missing: buffer defensively.
		p.pending[dstID] = append(p.pending[dstID], msg)
		return
	}
	dst := p.sys.procs[h]
	srcID, _ := ULPFromTID(msg.Src)
	wrapped := core.NewBuffer().
		PkInt(srcID).PkInt(dstID).PkInt(msg.Tag).
		PkVirtual(remoteHeaderBytes).
		PkBuffer(msg.Buf)
	if err := p.task.Send(dst.task.Mytid(), tagData, wrapped); err != nil {
		// Remote process unreachable: hold the message like any other
		// not-yet-routable delivery instead of dropping it silently.
		p.pending[dstID] = append(p.pending[dstID], msg)
	}
}

// drainPending moves held messages into a newly arrived ULP's inbox.
func (p *Process) drainPending(u *ULP) {
	for _, msg := range p.pending[u.id] {
		u.deliver(msg)
	}
	delete(p.pending, u.id)
}
