// Package cluster models a network of shared, heterogeneous workstations:
// per-host CPUs under processor-sharing timesharing, memory accounting,
// background load, and owner activity (the arrival of a workstation's owner
// is the paper's canonical migration trigger).
package cluster

import (
	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// HostSpec describes one workstation.
type HostSpec struct {
	Name string
	// Arch is the architecture/OS label; MPVM and UPVM can only migrate
	// between migration-compatible hosts (same Arch).
	Arch string
	// Speed is the CPU rate in work units (FLOP) per second. The HP 9000/720
	// (PA-RISC 1.1, 50 MHz) sustains roughly 9 MFLOP/s on this kind of
	// back-propagation code.
	Speed float64
	// MemMB is physical memory in megabytes (the paper's hosts had 64 MB).
	MemMB int
}

// DefaultHostSpec returns the calibrated HP 9000/720 model.
func DefaultHostSpec(name string) HostSpec {
	return HostSpec{Name: name, Arch: "hppa1.1-hpux9", Speed: 9e6, MemMB: 64}
}

// Host is one workstation: CPU, memory, network interface, and owner state.
type Host struct {
	id      netsim.HostID
	spec    HostSpec
	cpu     *CPU
	iface   *netsim.Iface
	cluster *Cluster

	memUsedMB   int
	ownerActive bool
	ownerLoad   LoadHandle // the owner's CPU load while present and up
	down        bool
	dead        bool
}

// Change names which of a host's scheduling facts just moved.
type Change uint8

const (
	// OwnerChanged: SetOwnerActive flipped the owner state.
	OwnerChanged Change = iota
	// AvailChanged: Fail or Recover flipped the host's availability.
	AvailChanged
	// RunqChanged: the host's run-queue length (LoadAverage) changed.
	RunqChanged
	// DeadChanged: SetDeclaredDead flipped the scheduler's dead verdict.
	DeadChanged
)

// Cluster is the set of hosts plus the network connecting them.
type Cluster struct {
	k     *sim.Kernel
	net   *netsim.Network
	hosts []*Host

	// watchers hear every Change on every host, in registration order.
	watchers []func(h *Host, ch Change)
}

// New builds a cluster of the given hosts on a fresh network.
func New(k *sim.Kernel, netParams netsim.Params, specs ...HostSpec) *Cluster {
	c := &Cluster{k: k, net: netsim.New(k, netParams)}
	for i, s := range specs {
		id := netsim.HostID(i)
		h := &Host{
			id:      id,
			spec:    s,
			cpu:     NewCPU(k, s.Speed),
			iface:   c.net.Attach(id),
			cluster: c,
		}
		h.cpu.host = h
		c.hosts = append(c.hosts, h)
	}
	return c
}

// Watch registers fn to be called (in kernel context) whenever any host's
// owner state, availability or run-queue length changes: the load daemons
// reporting to the global scheduler (paper §2.0), pushed rather than polled.
// fn runs synchronously inside the call that made the change, once the
// changed fact reads its new value.
func (c *Cluster) Watch(fn func(h *Host, ch Change)) {
	c.watchers = append(c.watchers, fn)
}

func (h *Host) notify(ch Change) {
	for _, fn := range h.cluster.watchers {
		fn(h, ch)
	}
}

// Kernel returns the simulation kernel.
func (c *Cluster) Kernel() *sim.Kernel { return c.k }

// Network returns the shared network.
func (c *Cluster) Network() *netsim.Network { return c.net }

// Hosts returns all hosts in id order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// Host returns the host with the given id.
func (c *Cluster) Host(id netsim.HostID) *Host {
	if int(id) < 0 || int(id) >= len(c.hosts) {
		return nil
	}
	return c.hosts[id]
}

// ID returns the host's network id.
func (h *Host) ID() netsim.HostID { return h.id }

// Name returns the host's name.
func (h *Host) Name() string { return h.spec.Name }

// Arch returns the architecture label used for migration compatibility.
func (h *Host) Arch() string { return h.spec.Arch }

// Spec returns the host's full specification.
func (h *Host) Spec() HostSpec { return h.spec }

// CPU returns the host's processor.
func (h *Host) CPU() *CPU { return h.cpu }

// Iface returns the host's network interface.
func (h *Host) Iface() *netsim.Iface { return h.iface }

// Cluster returns the owning cluster.
func (h *Host) Cluster() *Cluster { return h.cluster }

// MigrationCompatible reports whether a VP state image captured on h can be
// resumed on other — the paper's "migration compatible host" relation
// (same, or sufficiently similar, architecture and OS).
func (h *Host) MigrationCompatible(other *Host) bool {
	return h.spec.Arch == other.spec.Arch
}

// CodeOutOfMemory marks an AllocMem the host's physical memory cannot hold.
const CodeOutOfMemory errs.Code = "cluster.out-of-memory"

// AllocMem reserves MB of memory; it fails when the host would exceed its
// physical memory (the model does not page).
func (h *Host) AllocMem(mb int) error {
	if h.memUsedMB+mb > h.spec.MemMB {
		return errs.Newf(CodeOutOfMemory, "host %s out of memory (%d used + %d wanted > %d MB)",
			h.spec.Name, h.memUsedMB, mb, h.spec.MemMB)
	}
	h.memUsedMB += mb
	return nil
}

// FreeMem releases MB of memory.
func (h *Host) FreeMem(mb int) {
	h.memUsedMB -= mb
	if h.memUsedMB < 0 {
		h.memUsedMB = 0
	}
}

// MemUsedMB returns currently reserved memory.
func (h *Host) MemUsedMB() int { return h.memUsedMB }

// OwnerActive reports whether the workstation's owner is currently using it.
func (h *Host) OwnerActive() bool { return h.ownerActive }

// SetOwnerActive flips the owner state. Owner presence adds interactive
// load to the CPU and notifies watchers (OwnerChanged); the global
// scheduler reacts by evacuating guest VPs ("owner reclamation").
func (h *Host) SetOwnerActive(active bool) {
	if active == h.ownerActive {
		return
	}
	h.ownerActive = active
	if active {
		h.ownerLoad = h.cpu.AddLoad()
	} else {
		h.ownerLoad.Remove()
	}
	h.notify(OwnerChanged)
}

// LoadAverage returns the host's instantaneous run-queue length — what a
// 1994 load daemon would sample for the global scheduler.
func (h *Host) LoadAverage() int { return h.cpu.ActiveJobs() }

// Alive reports whether the host is up. Hosts start alive; Fail and Recover
// flip the state.
func (h *Host) Alive() bool { return !h.down }

// DeclaredDead reports whether the global scheduler has declared the host
// lost: its daemon's heartbeats fell silent, whether it crashed or is only
// cut off (then it is still Alive). It is the one dead verdict every
// placement path reads.
func (h *Host) DeclaredDead() bool { return h.dead }

// SetDeclaredDead records the scheduler's verdict and notifies watchers
// (DeadChanged). Only the scheduler calls it.
func (h *Host) SetDeclaredDead(dead bool) {
	if dead == h.dead {
		return
	}
	h.dead = dead
	h.notify(DeadChanged)
}

// Receives reports whether the host may take work displaced from another:
// it is alive, not declared dead, and its owner is away. It is the one
// receiver predicate of every placement path — evacuations, rebalancing
// moves, plans and respawns; a moving process image also needs
// MigrationCompatible.
func (h *Host) Receives() bool { return !h.down && !h.dead && !h.ownerActive }

// Fail takes the host down: it disappears from the network, loses its
// memory contents (reservations are wiped — a crash frees everything), and
// notifies watchers (AvailChanged). Processes on the host are not killed here;
// the PVM layer does that (Machine.CrashHost), since the cluster does not
// know about tasks.
func (h *Host) Fail() {
	if h.down {
		return
	}
	h.down = true
	h.memUsedMB = 0
	h.ownerLoad.Remove()
	h.cluster.net.SetHostDown(h.id, true)
	h.notify(AvailChanged)
}

// Recover brings a failed host back up with empty memory, as after a
// reboot. Owner state survives conceptually (the workstation still has an
// owner) but any owner CPU load handle was lost with the crash, so it is
// re-applied if the owner is present.
func (h *Host) Recover() {
	if !h.down {
		return
	}
	h.down = false
	h.cluster.net.SetHostDown(h.id, false)
	if h.ownerActive && h.ownerLoad == (LoadHandle{}) {
		h.ownerLoad = h.cpu.AddLoad()
	}
	h.notify(AvailChanged)
}
