package pvm

import (
	"fmt"

	"pvmigrate/internal/netsim"
)

// Host-failure support: crashing a host kills its daemon and every local
// task at one virtual instant (nothing flushes, nothing says goodbye), and
// reviving it starts a fresh daemon, as if the workstation rebooted and
// rejoined the virtual machine. The cluster/netsim layers handle the
// machine-level side (Host.Fail/Recover); these methods handle the PVM
// process level. The fault-injection layer calls both together.

// Killed is the interrupt reason delivered to a task's proc when its host
// crashes. Like SIGKILL, it is not catchable: the migration layer's signal
// hook turns it into an error that unwinds the task body.
type Killed struct{ Host int }

func (k Killed) String() string { return fmt.Sprintf("killed: host %d crashed", k.Host) }

// ForceKill terminates the task immediately without routing a control
// message — the daemon-local SIGKILL. Besides host crashes, the migration
// layer uses it to reap orphaned incarnations found on a rejoining host.
func (t *Task) ForceKill(reason any) { t.forceKill(reason) }

// forceKill terminates the task immediately: it is deregistered and its
// proc is interrupted with the given reason so any blocking call unwinds.
// No control message is routed — the host is gone, there is no daemon left
// to deliver anything.
func (t *Task) forceKill(reason any) {
	if t.exited {
		return
	}
	t.Exit()
	if !t.proc.Done() {
		t.proc.Interrupt(reason)
	}
}

// halt stops the daemon process and unbinds its port. Queued datagrams are
// lost (a crashed kernel does not drain its socket buffers), and so is the
// one the pvmd was charging, which run drops once the charge returns; the
// unbind lets a revived daemon bind a fresh queue.
func (d *Daemon) halt(reason any) {
	d.halted = true
	d.inq.Drain()
	d.iface.CloseDgram(pvmdPort)
	if !d.proc.Done() {
		d.proc.Interrupt(reason)
	}
}

// CrashHost models the instantaneous loss of a host: every local task is
// killed and the pvmd halts. Callers normally mark the host down first
// (cluster.Host.Fail) so in-flight frames to it are dropped too.
func (m *Machine) CrashHost(host int) error {
	d := m.Daemon(host)
	if d == nil {
		return fmt.Errorf("pvm: no host %d", host)
	}
	reason := Killed{Host: host}
	for _, t := range d.Tasks() {
		t.forceKill(reason)
	}
	d.halt(reason)
	return nil
}

// ReviveHost starts a fresh pvmd on a previously crashed host and re-runs
// the registered daemon-init hooks on it, so migration-layer wiring
// (Control/ForwardUnknown) matches the original daemons. The host itself
// must already be back up (cluster.Host.Recover).
func (m *Machine) ReviveHost(host int) (*Daemon, error) {
	h := m.cl.Host(netsim.HostID(host))
	if h == nil {
		return nil, fmt.Errorf("pvm: no host %d", host)
	}
	if old := m.Daemon(host); old != nil && !old.proc.Done() {
		return nil, fmt.Errorf("pvm: host %d daemon still running", host)
	}
	d := newDaemon(m, h)
	m.daemons[host] = d
	for _, fn := range m.daemonInit {
		fn(d)
	}
	return d, nil
}

// OnDaemonInit registers a hook applied to every current and future daemon.
// The migration layers install their daemon extensions here so a revived
// host's fresh daemon is wired identically to the originals.
func (m *Machine) OnDaemonInit(fn func(*Daemon)) {
	m.daemonInit = append(m.daemonInit, fn)
	for _, d := range m.daemons {
		fn(d)
	}
}
