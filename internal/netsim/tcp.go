package netsim

import (
	"errors"
	"fmt"

	"pvmigrate/internal/sim"
)

// Errors returned by the TCP model.
var (
	ErrConnClosed    = errors.New("netsim: connection closed")
	ErrConnRefused   = errors.New("netsim: connection refused")
	ErrPortInUse     = errors.New("netsim: port already in use")
	ErrListenerClose = errors.New("netsim: listener closed")
	ErrUnreachable   = errors.New("netsim: host unreachable")
)

// Segment is one application-level send on a TCP connection. The model
// preserves message boundaries (the PVM layer frames its own messages; we
// spare it the extra bookkeeping and document the simplification).
type Segment struct {
	Bytes     int
	Payload   any
	SentAt    sim.Time
	ArrivedAt sim.Time
}

// Conn is one endpoint of an established connection.
type Conn struct {
	net    *Network
	local  HostID
	remote HostID
	peer   *Conn
	inbox  *sim.Queue[Segment]
	closed bool
	// wire, when non-nil, is the paired endpoint of a real TCP connection
	// (Params.Wire backend); wireSeq numbers this direction's frames.
	wire    WireConn
	wireSeq uint64
	// lastArrival is the latest scheduled delivery into the peer's inbox;
	// Close defers teardown until then, so in-flight data is not lost
	// (TCP flushes queued data on close).
	lastArrival sim.Time
}

// Listener accepts incoming connections on a host/port.
type Listener struct {
	iface   *Iface
	port    int
	pending *sim.Queue[*Conn]
	closed  bool
}

// Listen binds a TCP listener to the given port on this interface.
func (i *Iface) Listen(port int) (*Listener, error) {
	if _, ok := i.listeners[port]; ok {
		return nil, fmt.Errorf("%w: host %d port %d", ErrPortInUse, i.host, port)
	}
	if w := i.net.wire; w != nil {
		var werr error
		i.net.k.AwaitExternal(func() { werr = w.Listen(i.host, port) })
		if werr != nil {
			return nil, fmt.Errorf("%w: wire: %v", ErrPortInUse, werr)
		}
	}
	l := &Listener{
		iface:   i,
		port:    port,
		pending: sim.NewQueue[*Conn](i.net.k, 0),
	}
	i.listeners[port] = l
	return l, nil
}

// Accept blocks until a connection arrives and returns the server-side
// endpoint.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	c, err := l.pending.Get(p)
	if err == sim.ErrQueueClosed {
		return nil, ErrListenerClose
	}
	return c, err
}

// Close stops the listener; blocked Accepts return ErrListenerClose.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.iface.listeners, l.port)
	if w := l.iface.net.wire; w != nil {
		l.iface.net.k.AwaitExternal(func() { w.CloseListen(l.iface.host, l.port) })
	}
	l.pending.Close()
}

// Dial establishes a connection from this interface to dst:port. The caller
// blocks for the handshake (~1.5 RTT) plus the configured setup cost. The
// returned endpoint is ready for Send/Recv; the peer endpoint is delivered
// to the destination's listener queue.
func (i *Iface) Dial(p *sim.Proc, dst HostID, port int) (*Conn, error) {
	di := i.net.ifaces[dst]
	if di == nil {
		return nil, fmt.Errorf("%w: no host %d", ErrConnRefused, dst)
	}
	if !i.net.Reachable(i.host, dst) {
		return nil, fmt.Errorf("%w: host %d -> %d", ErrUnreachable, i.host, dst)
	}
	l, ok := di.listeners[port]
	if !ok || l.closed {
		return nil, fmt.Errorf("%w: host %d port %d", ErrConnRefused, dst, port)
	}
	// Handshake: SYN, SYN-ACK, ACK → three small frames (or loopback), plus
	// socket setup processing. The frames are queued on the shared link, so
	// the handshake is not done until the *last reserved frame* has left the
	// wire and propagated — under cross-traffic that completion time, not a
	// fixed 3·latency, dominates. (Sleeping the fixed amount let a dialer
	// "complete" before its own SYN frames had transmitted, and leaked the
	// reserved wire time into utilization even on failed dials — which is
	// unavoidable for the frames already sent, but the timing must match.)
	if dst != i.host {
		var lastEnd sim.Time
		for f := 0; f < 3; f++ {
			lastEnd = i.net.link.reserve(40)
		}
		if err := p.SleepUntil(lastEnd + Latency); err != nil {
			return nil, err
		}
	}
	if err := p.Sleep(tcpSetup); err != nil {
		return nil, err
	}
	if !i.net.Reachable(i.host, dst) {
		return nil, fmt.Errorf("%w: host %d -> %d", ErrUnreachable, i.host, dst)
	}
	if l.closed {
		// The listener went away while the handshake was in flight: the
		// final ACK lands on a closed socket.
		return nil, fmt.Errorf("%w: host %d port %d", ErrConnRefused, dst, port)
	}
	k := i.net.k
	client := &Conn{net: i.net, local: i.host, remote: dst, inbox: sim.NewQueue[Segment](k, 0)}
	server := &Conn{net: i.net, local: dst, remote: i.host, inbox: sim.NewQueue[Segment](k, 0)}
	client.peer, server.peer = server, client
	if w := i.net.wire; w != nil && dst != i.host {
		var cw, sw WireConn
		var werr error
		k.AwaitExternal(func() { cw, sw, werr = w.Dial(i.host, dst, port) })
		if werr != nil {
			return nil, fmt.Errorf("%w: wire: %v", ErrConnRefused, werr)
		}
		client.wire, server.wire = cw, sw
	}
	if !l.pending.TryPut(server) {
		if client.wire != nil {
			k.AwaitExternal(func() {
				client.wire.Close()
				server.wire.Close()
			})
		}
		return nil, ErrConnRefused
	}
	return client, nil
}

// Local returns the local host id.
func (c *Conn) Local() HostID { return c.local }

// Remote returns the peer host id.
func (c *Conn) Remote() HostID { return c.remote }

// Send transfers bytes of payload to the peer, blocking the sender at wire
// pace: the payload is cut into MSS-sized frames, each individually queued
// on the shared link, so concurrent transfers interleave fairly. The
// segment is delivered to the peer's inbox when the last frame arrives.
// Same-host connections pay loopback copy time instead of wire time.
func (c *Conn) Send(p *sim.Proc, bytes int, payload any) error {
	if c.closed {
		return ErrConnClosed
	}
	if !c.net.Reachable(c.local, c.remote) {
		return fmt.Errorf("%w: host %d -> %d", ErrUnreachable, c.local, c.remote)
	}
	seg := Segment{Bytes: bytes, Payload: payload, SentAt: p.Now()}
	var arrival sim.Time
	if c.remote == c.local {
		d := loopbackTime(bytes)
		if err := p.Sleep(d); err != nil {
			return err
		}
		arrival = p.Now()
	} else {
		remaining := bytes
		for {
			frag := remaining
			if frag > MSS {
				frag = MSS
			}
			if frag < 0 {
				frag = 0
			}
			if err := c.net.link.Transmit(p, frag); err != nil {
				return err
			}
			remaining -= frag
			if remaining <= 0 {
				break
			}
		}
		arrival = p.Now() + Latency
	}
	seg.ArrivedAt = arrival
	if arrival > c.lastArrival {
		c.lastArrival = arrival
	}
	peer := c.peer
	if c.wire != nil {
		// The real write happens only once pacing completed, i.e. exactly
		// when the simulated delivery is committed; the peer's endpoint
		// redeems the frame by sequence number at delivery time.
		seq := c.wireSeq
		c.wireSeq++
		var werr error
		c.net.k.AwaitExternal(func() { werr = c.wire.Send(seq, seg.Payload) })
		if werr != nil {
			return fmt.Errorf("%w: wire: %v", ErrConnClosed, werr)
		}
		pw := peer.wire
		c.net.k.ScheduleAt(arrival, func() {
			var v any
			var err error
			c.net.k.AwaitExternal(func() { v, err = pw.Recv(seq) })
			if err != nil {
				return // stream torn down first: the segment dies with it
			}
			seg.Payload = v
			peer.inbox.TryPut(seg) // no-op if the peer already tore down
		})
		return nil
	}
	c.net.k.ScheduleAt(arrival, func() {
		peer.inbox.TryPut(seg) // no-op if the peer already tore down
	})
	return nil
}

// Recv blocks until a segment arrives and returns it.
func (c *Conn) Recv(p *sim.Proc) (Segment, error) {
	seg, err := c.inbox.Get(p)
	if err == sim.ErrQueueClosed {
		return Segment{}, ErrConnClosed
	}
	return seg, err
}

// Close tears down this endpoint. The two directions are intentionally
// asymmetric:
//
//   - Segments already sent *by the closer* still arrive (TCP flushes
//     queued data on close): the peer's inbox stays open until the last
//     in-flight segment lands, and only then does the peer's blocked Recv
//     return ErrConnClosed.
//   - Segments still in flight *toward the closer* are silently dropped:
//     the closer's inbox closes immediately, so their delivery callbacks
//     TryPut into a closed queue and vanish — as with a real close(2),
//     which discards whatever later lands in the dead socket's buffer.
//
// TestConnCloseInFlightAsymmetry pins both halves of this contract.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.inbox.Close()
	peer := c.peer
	if peer == nil || peer.closed {
		return
	}
	peer.closed = true // no further sends from the peer either
	if c.wire != nil {
		// Tear the real stream down only after the last scheduled delivery
		// in either direction has had its chance to redeem its frame.
		drainAt := c.lastArrival
		if peer.lastArrival > drainAt {
			drainAt = peer.lastArrival
		}
		cw, pw := c.wire, peer.wire
		c.net.k.ScheduleAt(drainAt, func() {
			c.net.k.AwaitExternal(func() {
				cw.Close()
				pw.Close()
			})
		})
	}
	if c.lastArrival > c.net.k.Now() {
		c.net.k.ScheduleAt(c.lastArrival, func() { peer.inbox.Close() })
	} else {
		peer.inbox.Close()
	}
}
