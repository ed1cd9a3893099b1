package netsim

import (
	"fmt"

	"pvmigrate/internal/sim"
)

// Datagram is an unreliable-in-principle (in this model: reliable, ordered
// per sender) message delivered to a numbered port on a host. The PVM
// daemons use datagrams for daemon-to-daemon and control traffic, as real
// pvmds use UDP.
type Datagram struct {
	Src     HostID
	SrcPort int
	Dst     HostID
	DstPort int
	Bytes   int // payload size used for wire-time accounting
	Payload any // the simulated contents (passed by reference, not copied)
	SentAt  sim.Time
}

// Iface is a host's attachment to the network.
type Iface struct {
	net       *Network
	host      HostID
	listeners map[int]*Listener
	dgrams    map[int]*sim.Queue[Datagram]
	nextPort  int
	// lastLoopback serializes same-host datagram deliveries: local IPC is
	// a FIFO pipe, so a small datagram must not overtake a large one sent
	// just before it.
	lastLoopback sim.Time
}

// Host returns the interface's host id.
func (i *Iface) Host() HostID { return i.host }

// Network returns the network the interface is attached to.
func (i *Iface) Network() *Network { return i.net }

// BindDgram creates (or returns) the datagram queue for a port. Port 0
// allocates an ephemeral port, skipping ports already bound explicitly —
// an ephemeral bind must never alias an existing socket.
func (i *Iface) BindDgram(port int) (*sim.Queue[Datagram], int) {
	if port == 0 {
		for {
			i.nextPort++
			port = 10000 + i.nextPort
			if _, taken := i.dgrams[port]; !taken {
				break
			}
		}
	}
	q, ok := i.dgrams[port]
	if !ok {
		q = sim.NewQueue[Datagram](i.net.k, 0)
		i.dgrams[port] = q
	}
	return q, port
}

// SendDgram transmits a datagram. The call does not block (UDP sendto
// semantics): wire time is reserved immediately and delivery is scheduled
// after transmission plus latency. Same-host datagrams bypass the wire and
// cost one loopback copy. Datagrams larger than the MSS are fragmented;
// delivery happens when the last fragment arrives.
func (i *Iface) SendDgram(srcPort int, dst HostID, dstPort int, bytes int, payload any) {
	k := i.net.k
	d := Datagram{
		Src: i.host, SrcPort: srcPort,
		Dst: dst, DstPort: dstPort,
		Bytes: bytes, Payload: payload,
		SentAt: k.Now(),
	}
	var arrival sim.Time
	var tok uint64 // wire token, when a real backend carries the frame
	var wired bool // true when tok must be redeemed at delivery
	if dst == i.host {
		arrival = k.Now() + dgramOverhead + loopbackTime(bytes)
		if arrival < i.lastLoopback {
			arrival = i.lastLoopback // FIFO through the local IPC path
		}
		i.lastLoopback = arrival
	} else {
		remaining := bytes
		var lastEnd sim.Time
		for {
			frag := remaining
			if frag > MSS {
				frag = MSS
			}
			lastEnd = i.net.link.reserve(frag)
			remaining -= frag
			if remaining <= 0 {
				break
			}
		}
		arrival = lastEnd + Latency
		if w := i.net.wire; w != nil {
			var t uint64
			var err error
			// The real write is host I/O; bridge it at virtual send time.
			k.AwaitExternal(func() { t, err = w.SendDgram(i.host, srcPort, dst, dstPort, payload) })
			if err != nil {
				// A payload the codec cannot marshal is a protocol bug,
				// exactly what the wire backend exists to surface.
				panic(fmt.Sprintf("netsim: wire send of %T failed: %v", payload, err))
			}
			tok, wired = t, true
		}
	}
	k.ScheduleAt(arrival, func() {
		if wired {
			// Always redeem the wire token — even for deliveries the model
			// then drops — so the backend's socket stays drained.
			var v any
			var err error
			k.AwaitExternal(func() { v, err = i.net.wire.RecvDgram(tok) })
			if err != nil {
				panic(fmt.Sprintf("netsim: wire datagram %d lost: %v", tok, err))
			}
			d.Payload = v
		}
		di := i.net.ifaces[dst]
		if di == nil {
			return // host never attached: drop
		}
		if i.net.dropDgram(d.Src, dst) {
			return // host down, partitioned away, or random loss
		}
		if q, ok := di.dgrams[dstPort]; ok {
			q.TryPut(d)
		}
		// No queue bound: drop, like UDP to a closed port.
	})
}

// CloseDgram closes and unbinds the datagram queue on port, so a later
// BindDgram gets a fresh queue. Reviving a crashed host's daemon needs this:
// the dead daemon's queue was closed, and BindDgram alone would hand the
// closed queue back.
func (i *Iface) CloseDgram(port int) {
	if q, ok := i.dgrams[port]; ok {
		q.Close()
		delete(i.dgrams, port)
	}
}

func loopbackTime(bytes int) sim.Time {
	return sim.FromSeconds(float64(bytes) / LoopbackBps)
}
