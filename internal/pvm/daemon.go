package pvm

import (
	"fmt"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// CtlMsg is a daemon control message (anything that is not plain
// task-to-task data): via the Control hook, the MPVM migration protocol
// messages.
type CtlMsg struct {
	Kind    string
	From    core.TID
	Payload any
}

// Daemon is a pvmd: one per host, responsible for task creation and
// control, and for routing daemon-path messages.
type Daemon struct {
	m     *Machine
	host  *cluster.Host
	iface *netsim.Iface
	inq   *sim.Queue[netsim.Datagram]
	proc  *sim.Proc

	tasks     map[int]*Task // by local id
	nextLocal int

	// held keeps messages for tids that are not (or no longer) local when
	// no forwarder claims them, so nothing is silently lost.
	held []*Message

	// Control, when set, is handed every CtlMsg. The MPVM daemon extension
	// installs itself here.
	Control func(d *Daemon, c *CtlMsg)
	// ForwardUnknown, when set, is offered data messages addressed to tids
	// with no local task (e.g. tasks that migrated away). It reports
	// whether it re-routed the message.
	ForwardUnknown func(d *Daemon, msg *Message) bool
}

func newDaemon(m *Machine, h *cluster.Host) *Daemon {
	d := &Daemon{m: m, host: h, iface: h.Iface(), tasks: make(map[int]*Task)}
	d.inq, _ = d.iface.BindDgram(pvmdPort)
	d.proc = m.k.Spawn(fmt.Sprintf("pvmd%d", h.ID()), d.run)
	return d
}

// Host returns the daemon's workstation.
func (d *Daemon) Host() *cluster.Host { return d.host }

// Machine returns the owning virtual machine.
func (d *Daemon) Machine() *Machine { return d.m }

// TID returns the daemon's own tid.
func (d *Daemon) TID() core.TID { return core.DaemonTID(int(d.host.ID())) }

// Tasks returns the daemon's live local tasks, in local-id order.
func (d *Daemon) Tasks() []*Task {
	var ts []*Task
	for i := 1; i <= d.nextLocal; i++ {
		if t, ok := d.tasks[i]; ok {
			ts = append(ts, t)
		}
	}
	return ts
}

// run is the daemon main loop: receive datagrams, charge processing cost,
// dispatch.
func (d *Daemon) run(p *sim.Proc) {
	for {
		dg, err := d.inq.Get(p)
		if err != nil {
			return
		}
		d.m.chargeCPU(p, d.host, daemonProcessing)
		switch payload := dg.Payload.(type) {
		case *Message:
			d.route(p, payload)
		case *CtlMsg:
			// Stock pvmd handles no control kind itself: what the hook
			// does not recognise (or any kind with no hook installed) is
			// ignored.
			if d.Control != nil {
				d.Control(d, payload)
			}
		default:
			// Unknown datagram: drop, like a malformed UDP packet.
		}
	}
}

// route delivers or forwards a task data message.
func (d *Daemon) route(p *sim.Proc, msg *Message) {
	if msg.Hops > 4*d.m.NHosts() {
		d.held = append(d.held, msg) // routing loop: quarantine
		return
	}
	dstHost := msg.Dst.Host()
	if dstHost != int(d.host.ID()) {
		// Forward to the destination host's daemon over the wire.
		msg.Hops++
		d.iface.SendDgram(pvmdPort, netsim.HostID(dstHost), pvmdPort, msg.WireBytes(), msg)
		return
	}
	t := d.tasks[msg.Dst.Local()]
	if t == nil || t.exited {
		if d.ForwardUnknown != nil && d.ForwardUnknown(d, msg) {
			return
		}
		d.held = append(d.held, msg)
		return
	}
	t.deliver(msg)
}

// HeldMessages returns messages that could not be delivered or forwarded.
// A correct migration layer keeps this empty.
func (d *Daemon) HeldMessages() []*Message { return d.held }

// SendCtl sends a control message to another daemon (or to this one, via
// loopback) with the given accounted size.
func (d *Daemon) SendCtl(dstHost int, bytes int, c *CtlMsg) {
	d.iface.SendDgram(pvmdPort, netsim.HostID(dstHost), pvmdPort, bytes, c)
}

// spawnTask creates a task on this host. The task body starts running after
// the configured spawn cost (fork + exec + enroll).
func (d *Daemon) spawnTask(name string, body func(*Task)) *Task {
	d.nextLocal++
	local := d.nextLocal
	t := newTask(d, local, name, body)
	d.tasks[local] = t
	return t
}

// adoptTask installs an existing task object under this daemon with a fresh
// local id — the re-enroll step of MPVM migration. It returns the task's
// new tid.
func (d *Daemon) adoptTask(t *Task) core.TID {
	d.nextLocal++
	local := d.nextLocal
	d.tasks[local] = t
	return core.MakeTID(int(d.host.ID()), local)
}

// dropTask removes a task from the daemon's table (exit or migration away).
func (d *Daemon) dropTask(t *Task) {
	if cur, ok := d.tasks[t.tid.Local()]; ok && cur == t {
		delete(d.tasks, t.tid.Local())
	}
}
