// Package netsim models the shared 10 Mb/s Ethernet segment and the TCP and
// datagram services that the PVM substrate uses, as a discrete-event system
// on top of the sim kernel.
//
// The model is deliberately simple — a single shared FIFO link with
// per-frame pacing — because the quantities the paper measures (raw TCP
// transfer time, migration obtrusiveness, flush round trips) are dominated
// by payload size ÷ effective bandwidth plus a handful of protocol round
// trips. The frame overhead default is *fitted* so that a bulk TCP transfer
// achieves ~1.04 MB/s of payload goodput, which is the effective bandwidth
// implied by the raw-TCP column of the paper's Table 2 (slaves carry half of
// each listed data size: 0.3 MB/0.27 s ≈ 10.4 MB/10.0 s ≈ 1.04 MB/s).
package netsim

import (
	"time"

	"pvmigrate/internal/sim"
)

// HostID identifies a workstation on the network (dense, 0-based).
type HostID int

// The calibrated 1994 testbed model: shared Ethernet between HP 9000/720
// workstations (see DESIGN.md §5). MSS, Latency and LoopbackBps are
// exported because ft's checkpoint shipping charges the same wire model
// fragment by fragment.
const (
	// Latency is the one-way propagation plus interrupt/driver latency per
	// frame.
	Latency sim.Time = 700 * time.Microsecond
	// MSS is the TCP maximum segment payload per frame.
	MSS = 1460
	// frameOverhead is the *equivalent* per-frame overhead in bytes. It
	// folds together Ethernet/IP/TCP headers, the inter-frame gap, ACK
	// traffic and per-frame protocol processing, and is fitted so bulk TCP
	// goodput matches the paper's measured raw-TCP bandwidth: 1460 B
	// payload per (1460+295)·8/10e6 s = 1.04 MB/s.
	frameOverhead = 295
	// tcpSetup is the connection establishment cost beyond the handshake
	// round trips (socket creation, accept processing).
	tcpSetup sim.Time = 25 * time.Millisecond
	// dgramOverhead is the per-datagram fixed cost (UDP syscall + driver).
	dgramOverhead sim.Time = 300 * time.Microsecond
	// LoopbackBps is the effective memory-copy bandwidth for same-host
	// delivery, bytes/s (HP-720-era memcpy).
	LoopbackBps float64 = 25e6
	// bandwidthBps is the raw wire rate in bits per second: the 10 Mb/s
	// Ethernet of the paper's testbed.
	bandwidthBps float64 = 10e6
)

// Params is what a caller chooses about the network.
type Params struct {
	// Wire, when non-nil, carries every cross-host frame over a real
	// OS-level transport in addition to the timing model (see the Wire
	// interface in wire.go). nil keeps the fully in-memory backend.
	Wire Wire
}

// GoodputBps returns the model's steady-state bulk TCP payload bandwidth in
// bytes per second: ~1.04 MB/s.
func GoodputBps() float64 {
	return float64(MSS) / (float64(MSS+frameOverhead) * 8 / bandwidthBps)
}

// Network is a shared Ethernet segment connecting a set of host interfaces.
type Network struct {
	k      *sim.Kernel
	link   *Link
	wire   Wire // nil = in-memory only
	ifaces map[HostID]*Iface

	// failure state, driven by the fault-injection layer (failures.go)
	down     map[HostID]bool
	group    map[HostID]int
	lossRate float64
	lossRNG  *sim.RNG
}

// New creates a network on kernel k with the given parameters.
func New(k *sim.Kernel, p Params) *Network {
	return &Network{
		k:      k,
		link:   &Link{k: k},
		wire:   p.Wire,
		ifaces: make(map[HostID]*Iface),
	}
}

// Link returns the shared Ethernet link, mainly for tests and utilization
// probes.
func (n *Network) Link() *Link { return n.link }

// Attach creates (or returns the existing) interface for host h.
func (n *Network) Attach(h HostID) *Iface {
	if i, ok := n.ifaces[h]; ok {
		return i
	}
	i := &Iface{
		net:       n,
		host:      h,
		listeners: make(map[int]*Listener),
		dgrams:    make(map[int]*sim.Queue[Datagram]),
	}
	n.ifaces[h] = i
	if n.wire != nil {
		// Socket binding is host I/O: bridge it so virtual time stays frozen.
		n.k.AwaitExternal(func() { n.wire.AttachHost(h) })
	}
	return i
}

// Iface returns the interface for host h, or nil if never attached.
func (n *Network) Iface(h HostID) *Iface { return n.ifaces[h] }
