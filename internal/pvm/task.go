package pvm

import (
	"errors"
	"fmt"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// Errors returned by task operations.
var (
	ErrTaskExited = errors.New("pvm: task has exited")
	ErrBadTID     = errors.New("pvm: invalid destination tid")
)

// Task is a PVM virtual processor: a (simulated) Unix process linked with
// the run-time library. Task implements core.VP.
type Task struct {
	m    *Machine
	d    *Daemon
	host *cluster.Host
	tid  core.TID
	name string
	proc *sim.Proc

	inbox     []*Message
	inboxCond sim.Cond

	listener    *netsim.Listener
	directRoute bool
	conns       map[core.TID]*netsim.Conn

	exited bool
	// onExit hooks run synchronously inside Exit(). mpvm's placement hook
	// and the ADM target's load index subscribe here so host load
	// accounting updates at the exit instant, not a poll later.
	onExit []func(*Task)

	// Migration-layer hooks (installed by mpvm; nil under plain PVM).
	resolve    func(core.TID) core.TID  // outgoing tid remap
	srcRemap   func(core.TID) core.TID  // stable sender tid on receive
	beforeSend func(dst core.TID) error // may block (flush protocol)
	onSignal   func(reason any) error   // runs migration in task context
}

var _ core.VP = (*Task)(nil)

func newTask(d *Daemon, local int, name string, body func(*Task)) *Task {
	t := &Task{
		m:           d.m,
		d:           d,
		host:        d.host,
		tid:         core.MakeTID(int(d.host.ID()), local),
		name:        name,
		conns:       make(map[core.TID]*netsim.Conn),
		directRoute: d.m.cfg.DirectRoute,
	}
	t.inboxCond.Init(d.m.k)
	t.openListener()
	t.proc = d.m.k.Spawn(fmt.Sprintf("%s(%s)", name, t.tid), func(p *sim.Proc) {
		// fork + exec + enroll. The startup sleep runs with interrupts
		// enabled, so a migration signal can land this early (a GS decision
		// racing the spawn): route it through the signal handler like every
		// other blocking call, or the victim would silently swallow it and
		// hold its flush-blocked senders forever. Anything the handler does
		// not absorb (a kill) aborts the exec before the body runs.
		if err := p.Sleep(spawnCost); err != nil {
			if t.handleSignal(err) != nil {
				if !t.exited {
					t.Exit()
				}
				return
			}
		}
		body(t)
		if !t.exited {
			t.Exit()
		}
	})
	return t
}

// --- identity -------------------------------------------------------------

// Mytid returns the task's current tid.
func (t *Task) Mytid() core.TID { return t.tid }

// Name returns the task's executable name.
func (t *Task) Name() string { return t.name }

// Proc returns the task's simulated process.
func (t *Task) Proc() *sim.Proc { return t.proc }

// Host returns the workstation the task currently runs on.
func (t *Task) Host() *cluster.Host { return t.host }

// Daemon returns the pvmd currently responsible for the task.
func (t *Task) Daemon() *Daemon { return t.d }

// Machine returns the owning virtual machine.
func (t *Task) Machine() *Machine { return t.m }

// Exited reports whether the task has called Exit.
func (t *Task) Exited() bool { return t.exited }

// --- migration-layer hook installation ------------------------------------

// SetResolver installs the outgoing tid remapper (old tid → current tid).
func (t *Task) SetResolver(f func(core.TID) core.TID) { t.resolve = f }

// SetSrcRemap installs the inbound sender-tid remapper, so the application
// keeps seeing the stable tid it first learned for a peer.
func (t *Task) SetSrcRemap(f func(core.TID) core.TID) { t.srcRemap = f }

// SetBeforeSend installs a hook called (with interrupts masked, in the
// sending task's context) before each send; it may block the sender, which
// is how MPVM stalls sends to a migrating task.
func (t *Task) SetBeforeSend(f func(dst core.TID) error) { t.beforeSend = f }

// SetOnSignal installs the asynchronous signal handler, invoked in the
// task's context when a blocking call is interrupted. MPVM's handler runs
// the migration protocol and returns nil, after which the interrupted
// operation resumes transparently.
func (t *Task) SetOnSignal(f func(reason any) error) { t.onSignal = f }

// HandleSignal routes an interrupted-error through the installed signal
// handler, exactly as the library's own blocking calls do: a migration
// signal runs the protocol and returns nil (the caller retries its
// operation, possibly on a new host); anything else — a kill, a rollback —
// comes back as the error to unwind on. Layers that block outside the
// library (the ft manager's checkpoint I/O) use this to stay
// migration-transparent.
func (t *Task) HandleSignal(err error) error { return t.handleSignal(err) }

// handleSignal routes an interrupt to the handler, or surfaces it.
func (t *Task) handleSignal(err error) error {
	ie, ok := sim.IsInterrupted(err)
	if !ok || t.onSignal == nil {
		return err
	}
	return t.onSignal(ie.Reason)
}

// --- listener / direct route ----------------------------------------------

func (t *Task) openListener() {
	l, err := t.host.Iface().Listen(taskPortBase + t.tid.Local())
	if err != nil {
		panic(fmt.Sprintf("pvm: task listener: %v", err))
	}
	t.listener = l
	l.Serve(t.startPump)
}

// startPump delivers each message arriving on an accepted connection to
// the task's inbox, in kernel context.
func (t *Task) startPump(conn *netsim.Conn) {
	conn.Serve(func(seg netsim.Segment) {
		if msg, ok := seg.Payload.(*Message); ok {
			t.deliver(msg)
		}
	})
}

func (t *Task) closeEndpoints() {
	if t.listener != nil {
		t.listener.Close()
		t.listener = nil
	}
	for tid, c := range t.conns {
		c.Close()
		delete(t.conns, tid)
	}
}

// DropConn discards a cached direct connection (used after the peer
// migrates: its old endpoint is gone).
func (t *Task) DropConn(tid core.TID) {
	if c, ok := t.conns[tid]; ok {
		c.Close()
		delete(t.conns, tid)
	}
}

// --- delivery ---------------------------------------------------------------

// deliver places a message in the task's inbox. Called from kernel context:
// daemon loopback delivery or a direct connection's pump.
func (t *Task) deliver(msg *Message) {
	t.inbox = append(t.inbox, msg)
	t.inboxCond.Broadcast()
}

// TakeInbox removes and returns all queued messages (used when migrating:
// unreceived messages are part of the transferred state).
func (t *Task) TakeInbox() []*Message {
	msgs := t.inbox
	t.inbox = nil
	return msgs
}

// RestoreInbox prepends previously taken messages (state restore on the
// destination host).
func (t *Task) RestoreInbox(msgs []*Message) {
	t.inbox = append(append([]*Message{}, msgs...), t.inbox...)
	t.inboxCond.Broadcast()
}

// --- send / receive ----------------------------------------------------------

func (t *Task) match(msg *Message, src core.TID, tag int) bool {
	msgSrc := msg.Src
	if t.srcRemap != nil {
		msgSrc = t.srcRemap(msgSrc)
	}
	if src != core.AnyTID && msgSrc != src {
		return false
	}
	return tag == core.AnyTag || msg.Tag == tag
}

// Send packs buf to dst with tag. The cost model charges one packing copy
// and the library-call overhead; the wire cost depends on the route. Send
// runs with interrupts masked (the library re-entrancy flag): a migration
// signal arriving mid-send pends until the library call completes.
func (t *Task) Send(dst core.TID, tag int, buf *core.Buffer) error {
	return t.SendAs(t.proc, dst, tag, buf)
}

// SendAs is Send executed in the context of an arbitrary proc — the UPVM
// library issues process-level sends from whichever ULP is currently
// scheduled, so the cost lands on the running thread of control.
func (t *Task) SendAs(p *sim.Proc, dst core.TID, tag int, buf *core.Buffer) error {
	if t.exited {
		return ErrTaskExited
	}
	if !dst.Valid() || dst.IsDaemon() {
		return fmt.Errorf("%w: %v", ErrBadTID, dst)
	}
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	t.m.chargeCPU(p, t.host, libCallOverhead+t.m.packTime(buf.Bytes()))
	if t.beforeSend != nil {
		if err := t.beforeSend(dst); err != nil {
			return err
		}
	}
	rdst := dst
	if t.resolve != nil {
		rdst = t.resolve(dst)
	}
	if rdst.Host() < 0 || rdst.Host() >= t.m.NHosts() {
		return fmt.Errorf("%w: %v", ErrBadTID, rdst)
	}
	msg := &Message{Src: t.tid, Dst: rdst, Tag: tag, Buf: buf, SentAt: p.Now()}
	if t.directRoute && t.sendDirect(p, rdst, msg) {
		return nil
	}
	// Daemon route: loopback datagram to the local pvmd, which forwards.
	t.host.Iface().SendDgram(taskPortBase+t.tid.Local(), t.host.ID(), pvmdPort,
		msg.WireBytes(), msg)
	return nil
}

// sendDirect transmits over a cached or freshly dialed task-to-task TCP
// connection; it reports false when the peer cannot be dialed (the caller
// falls back to the daemon route).
func (t *Task) sendDirect(p *sim.Proc, dst core.TID, msg *Message) bool {
	conn, ok := t.conns[dst]
	if !ok {
		c, err := t.host.Iface().Dial(p, netsim.HostID(dst.Host()), taskPortBase+dst.Local())
		if err != nil {
			return false
		}
		t.conns[dst] = c
		conn = c
	}
	if err := conn.Send(p, msg.WireBytes(), msg); err != nil {
		conn.Close()
		delete(t.conns, dst)
		return false
	}
	return true
}

// Recv blocks until a message matching src and tag arrives, then unpacks it
// (charging the receive-side copy) and returns sender, tag and a reader.
// While waiting, interrupts are *enabled* — this is the re-implemented
// pvm_recv of MPVM §4.1.1: a process blocked in receive can be migrated,
// the signal handler (SetOnSignal) runs the protocol, and the receive
// resumes on the new host as if nothing happened.
func (t *Task) Recv(src core.TID, tag int) (core.TID, int, *core.Reader, error) {
	if t.exited {
		return core.NoTID, 0, nil, ErrTaskExited
	}
	p := t.proc
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	t.m.chargeCPU(p, t.host, libCallOverhead)
	for {
		for i, msg := range t.inbox {
			if t.match(msg, src, tag) {
				t.inbox = append(t.inbox[:i], t.inbox[i+1:]...)
				return t.finishRecv(p, msg)
			}
		}
		p.UnmaskInterrupts()
		err := t.inboxCond.Wait(p)
		p.MaskInterrupts()
		if err != nil {
			if herr := t.handleSignal(err); herr != nil {
				return core.NoTID, 0, nil, herr
			}
			// Migration handled; keep waiting (possibly on a new host).
		}
	}
}

// NRecv is the non-blocking receive: ok reports whether a matching message
// was available.
func (t *Task) NRecv(src core.TID, tag int) (core.TID, int, *core.Reader, bool, error) {
	if t.exited {
		return core.NoTID, 0, nil, false, ErrTaskExited
	}
	p := t.proc
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	t.m.chargeCPU(p, t.host, libCallOverhead)
	for i, msg := range t.inbox {
		if t.match(msg, src, tag) {
			t.inbox = append(t.inbox[:i], t.inbox[i+1:]...)
			tid, tag2, r, err := t.finishRecv(p, msg)
			return tid, tag2, r, err == nil, err
		}
	}
	return core.NoTID, 0, nil, false, nil
}

func (t *Task) finishRecv(p *sim.Proc, msg *Message) (core.TID, int, *core.Reader, error) {
	t.m.chargeCPU(p, t.host, t.m.packTime(msg.Buf.Bytes()))
	srcTID := msg.Src
	if t.srcRemap != nil {
		srcTID = t.srcRemap(srcTID)
	}
	msg.rd.Reset(msg.Buf)
	return srcTID, msg.Tag, &msg.rd, nil
}

// --- compute -----------------------------------------------------------------

// Compute burns flops of application work on the task's current host. The
// call is migration-transparent: a migration signal interrupts the burst,
// the signal handler relocates the task, and the remaining work continues
// on the new host.
func (t *Task) Compute(flops float64) error {
	remaining := flops
	for remaining > 0 {
		rem, err := t.host.CPU().Compute(t.proc, remaining)
		if err == nil {
			return nil
		}
		if herr := t.handleSignal(err); herr != nil {
			return herr
		}
		remaining = rem
	}
	return nil
}

// --- lifecycle -----------------------------------------------------------------

// Exit deregisters the task (pvm_exit), tears down its endpoints, and
// runs the OnExit hooks.
func (t *Task) Exit() {
	if t.exited {
		return
	}
	t.exited = true
	t.d.dropTask(t)
	t.closeEndpoints()
	t.inboxCond.Broadcast()
	for _, fn := range t.onExit {
		fn(t)
	}
	t.onExit = nil
}

// OnExit registers fn to run synchronously when the task exits, in
// registration order. If the task has already exited, fn runs immediately.
func (t *Task) OnExit(fn func(*Task)) {
	if t.exited {
		fn(t)
		return
	}
	t.onExit = append(t.onExit, fn)
}

// --- migration surgery (used by the mpvm package) -----------------------------

// DetachFromHost removes the task from its current daemon and closes its
// network endpoints; the task keeps its inbox and identity. This is the
// "state captured, process gone from the source" point of a migration.
func (t *Task) DetachFromHost() {
	t.d.dropTask(t)
	t.closeEndpoints()
}

// AttachToHost re-enrolls the task under the daemon of the given host with
// a fresh tid, reopens its listener, and makes it the task's new home. It
// returns the new tid. The caller is responsible for announcing the remap
// to the rest of the application (the restart broadcast).
func (t *Task) AttachToHost(d *Daemon) core.TID {
	newTID := d.adoptTask(t)
	t.d = d
	t.host = d.host
	t.tid = newTID
	t.openListener()
	return newTID
}
