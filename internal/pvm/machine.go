// Package pvm implements a PVM 3.x-style message-passing substrate on the
// simulated cluster: one pvmd daemon per host, tasks (virtual processors)
// with tids, typed message buffers, blocking/non-blocking receive with
// wildcards, daemon-routed and direct TCP-routed communication, and process
// spawning. It is sized by its traffic — what Opt, the three migration
// systems and the GS send; PVM's group server, collectives, pvm_mcast/
// notify/kill/trecv/probe and the task-side spawn RPC had no caller and are
// not modelled.
//
// The package exposes the hook points (tid remapping, send interception,
// signal handling, message forwarding) that the MPVM migration layer plugs
// into, mirroring how MPVM was "transparently linked into the application"
// as a library around stock PVM.
package pvm

import (
	"fmt"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// Well-known ports on each host.
const (
	pvmdPort     = 1    // daemon datagram port
	taskPortBase = 1000 // task listen ports: taskPortBase + local id
)

// The substrate's cost model, calibrated to the paper's 1994 workstations
// (see DESIGN.md §5).
const (
	// packBps is the memory bandwidth charged for packing/unpacking message
	// buffers (one copy on each side), bytes/s.
	packBps float64 = 25e6
	// libCallOverhead is the fixed CPU cost of entering the run-time
	// library (argument checking, buffer management).
	libCallOverhead sim.Time = 60 * time.Microsecond
	// daemonProcessing is the per-message CPU cost at each pvmd hop.
	daemonProcessing sim.Time = 250 * time.Microsecond
	// spawnCost is the fork+exec+enroll cost of starting a task.
	spawnCost sim.Time = 280 * time.Millisecond
)

// Config is what a caller chooses about the substrate.
type Config struct {
	// DirectRoute makes new tasks default to PvmRouteDirect (task-to-task
	// TCP) instead of routing through the daemons.
	DirectRoute bool
}

// Message is one task-to-task message in flight.
type Message struct {
	Src, Dst core.TID
	Tag      int
	Buf      *core.Buffer
	SentAt   sim.Time
	// Hops counts daemon forwards, to detect routing loops in tests.
	Hops int
	// rd is the cursor the receive hands out: a message is received once,
	// so its cursor costs no allocation of its own.
	rd core.Reader
}

// WireBytes returns the message's on-the-wire size (payload + header).
func (m *Message) WireBytes() int { return m.Buf.Bytes() + msgHeaderBytes }

const msgHeaderBytes = 40

// Machine is the parallel virtual machine: the set of daemons over a
// cluster. It corresponds to a running `pvmd` federation.
type Machine struct {
	cl      *cluster.Cluster
	k       *sim.Kernel
	cfg     Config
	daemons []*Daemon

	// daemonInit hooks are re-applied to daemons created by ReviveHost.
	daemonInit []func(*Daemon)
}

// NewMachine starts a pvmd on every host of the cluster.
func NewMachine(cl *cluster.Cluster, cfg Config) *Machine {
	m := &Machine{cl: cl, k: cl.Kernel(), cfg: cfg}
	for _, h := range cl.Hosts() {
		m.daemons = append(m.daemons, newDaemon(m, h))
	}
	return m
}

// Cluster returns the underlying cluster.
func (m *Machine) Cluster() *cluster.Cluster { return m.cl }

// Kernel returns the simulation kernel.
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// Daemon returns the pvmd on host h.
func (m *Machine) Daemon(h int) *Daemon {
	if h < 0 || h >= len(m.daemons) {
		return nil
	}
	return m.daemons[h]
}

// NHosts returns the number of hosts in the virtual machine.
func (m *Machine) NHosts() int { return len(m.daemons) }

// Spawn starts a task running body on the given host after the configured
// spawn cost, returning its handle immediately (the tid is valid at once,
// as with pvm_spawn). Body runs on the task's own simulated process.
func (m *Machine) Spawn(host int, name string, body func(*Task)) (*Task, error) {
	d := m.Daemon(host)
	if d == nil {
		return nil, fmt.Errorf("pvm: no host %d", host)
	}
	return d.spawnTask(name, body), nil
}

// ChargeCPU exposes the library cost-charging primitive to the migration
// layers (mpvm, upvm), which have their own protocol CPU costs to account.
func (m *Machine) ChargeCPU(p *sim.Proc, h *cluster.Host, d sim.Time) {
	m.chargeCPU(p, h, d)
}

// chargeCPU burns d of CPU time worth of work on host for proc p,
// contending with whatever else runs there. Library-internal work runs with
// interrupts masked, so migration signals pend rather than tearing the
// library state (the paper's re-entrancy flag).
func (m *Machine) chargeCPU(p *sim.Proc, h *cluster.Host, d sim.Time) {
	if d <= 0 {
		return
	}
	work := sim.Seconds(d) * h.CPU().Speed()
	rem, err := h.CPU().Compute(p, work)
	if err == nil {
		return
	}
	ie, ok := sim.IsInterrupted(err)
	if !ok {
		return
	}
	// Interrupted (only possible for callers charging unmasked work, e.g. a
	// daemon halted by a host crash mid-dispatch). Finish the remaining
	// accounting work with interrupts masked — a pending interrupt surfaces
	// at every unmasked blocking call, so an unmasked retry would spin at
	// this instant forever — then re-pend the signal so it lands at the
	// caller's next blocking point.
	wasMasked := p.InterruptsMasked()
	p.MaskInterrupts()
	for rem > 0 {
		rem, _ = h.CPU().Compute(p, rem)
	}
	if !wasMasked {
		p.UnmaskInterrupts()
	}
	p.Interrupt(ie.Reason)
}

// packTime returns the CPU time to copy n bytes through the packing layer.
func (m *Machine) packTime(n int) sim.Time {
	return sim.FromSeconds(float64(n) / packBps)
}
