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

	// outbound holds the barriers of the migrations this process runs as
	// source, by ulp id. An entry outlives its migration so its generation
	// keeps counting: a stale ack never counts toward a later migration.
	outbound map[int]*outboundXfer
}

// outboundXfer is one ULP's source side: the stage-2 flush barrier over
// every other process and the stage-3 accept barrier over the destination,
// both opened with the migration's generation, and the migrator's wake.
type outboundXfer struct {
	flush, accept core.Barrier
	wake          sim.Cond
}

type inboundXfer struct {
	total, got int
	// gen is the sending migration's barrier generation, echoed in the
	// accept ack so the source matches it to the right transfer.
	gen int
	// src is the header's sender: the rest of the stream must come from it.
	src       core.TID
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
	// rd is the cursor the receive hands out: a message is received once,
	// so its cursor costs no allocation of its own.
	rd core.Reader
}

func newProcess(s *System, host int, name string) (*Process, error) {
	p := &Process{
		sys:      s,
		host:     host,
		ulps:     make(map[int]*ULP),
		locator:  make(map[int]int),
		pending:  make(map[int][]*UMessage),
		inbound:  make(map[int]*inboundXfer),
		outbound: make(map[int]*outboundXfer),
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

func (p *Process) addULP(u *ULP) {
	p.ulps[u.id] = u
	u.p = p
	// Initial placement is known globally: the SPMD loader distributes
	// ULPs before the application runs.
	for h := range p.sys.procs {
		p.sys.procs[h].locator[u.id] = p.host
	}
	p.sys.Placed(u.id, p.host)
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
		src, tag, r, err := t.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return
		}
		switch tag {
		case tagData:
			p.onData(r)
		case tagCtl:
			p.onCtl(src, r)
		case tagXfer:
			p.onXfer(t, src, r)
		default:
			// Not a UPVM message: ignore.
		}
	}
}

// onData unwraps a remote application message and delivers it. Like onCtl,
// it drops a message whose fields do not all unpack or name no ULP.
func (p *Process) onData(r *core.Reader) {
	ulps := len(p.sys.ulps)
	srcID, dstID, appTag := r.UpkIndex(ulps), r.UpkIndex(ulps), r.UpkInt()
	r.UpkVirtual() // the UPVM routing header
	inner := r.UpkBuffer()
	if r.Err() != nil {
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
