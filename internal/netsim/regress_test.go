package netsim

import (
	"errors"
	"testing"

	"pvmigrate/internal/sim"
)

// Regression: BindDgram(0) must never hand out a port that was already
// bound explicitly. Before the fix, the ephemeral allocator computed
// 10000+nextPort without consulting i.dgrams, so an explicit bind of 10001
// made the next ephemeral bind return the *existing* queue — two logically
// distinct sockets cross-wired onto one inbox.
func TestBindDgramEphemeralSkipsBoundPorts(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	i := n.Attach(0)

	explicit, port := i.BindDgram(10001) // the first ephemeral candidate
	if port != 10001 {
		t.Fatalf("explicit bind got port %d, want 10001", port)
	}
	q1, p1 := i.BindDgram(0)
	if p1 == 10001 {
		t.Fatalf("ephemeral bind allocated the explicitly bound port %d", p1)
	}
	if q1 == explicit {
		t.Fatalf("ephemeral bind aliased the explicitly bound queue")
	}
	// A run of explicit binds across the ephemeral range must all be
	// skipped, and consecutive ephemeral binds stay distinct.
	i.BindDgram(10003)
	i.BindDgram(10004)
	q2, p2 := i.BindDgram(0)
	q3, p3 := i.BindDgram(0)
	if p2 == 10003 || p2 == 10004 || p3 == 10003 || p3 == 10004 {
		t.Fatalf("ephemeral binds %d, %d collided with explicit ports", p2, p3)
	}
	if p2 == p1 || p3 == p2 || q2 == q1 || q3 == q2 {
		t.Fatalf("ephemeral binds not distinct: ports %d, %d, %d", p1, p2, p3)
	}
}

// Regression: Dial books its three 40-byte handshake frames on the shared
// link but used to sleep a fixed tcpSetup + 3·Latency, ignoring when those
// frames actually clear the wire. Under cross-traffic the dialer then
// "completed" its handshake long before its own SYN frames had
// transmitted. The handshake is done no earlier than the last reserved
// frame's end + propagation latency + socket setup.
func TestDialWaitsForHandshakeFrames(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	src := n.Attach(0)
	dst := n.Attach(1)
	if _, err := dst.Listen(9000); err != nil {
		t.Fatalf("listen: %v", err)
	}

	// Pre-load ~1 s of backlog on the wire, as heavy cross-traffic would.
	var backlogEnd sim.Time
	for backlogEnd < sim.FromSeconds(1) {
		backlogEnd = n.link.reserve(MSS)
	}

	var completed sim.Time
	dialErr := errors.New("dial never ran")
	k.Spawn("dialer", func(p *sim.Proc) {
		_, dialErr = src.Dial(p, 1, 9000)
		completed = p.Now()
	})
	k.Run()
	if dialErr != nil {
		t.Fatalf("dial: %v", dialErr)
	}
	// The dialer's SYN/SYN-ACK/ACK frames queue behind the backlog.
	earliest := backlogEnd + 3*n.link.frameTime(40) + Latency + tcpSetup
	if completed < earliest {
		t.Fatalf("dial completed at %v, before its handshake frames cleared the wire (earliest %v)",
			completed, earliest)
	}
}

// Dial must notice a listener that closed while the handshake was in
// flight: the final ACK lands on a dead socket and the dial is refused,
// not handed a connection nothing will ever accept.
func TestDialRefusedWhenListenerClosesMidHandshake(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	src := n.Attach(0)
	dst := n.Attach(1)
	l, err := dst.Listen(9000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	k.Schedule(tcpSetup/2, func() { l.Close() })

	var dialErr error
	gotConn := false
	k.Spawn("dialer", func(p *sim.Proc) {
		c, err := src.Dial(p, 1, 9000)
		dialErr = err
		gotConn = c != nil
	})
	k.Run()
	if gotConn || !errors.Is(dialErr, ErrConnRefused) {
		t.Fatalf("dial got (conn=%v, err=%v), want refused", gotConn, dialErr)
	}
}

// Pins Conn.Close's intended in-flight asymmetry: segments the closer
// already sent still arrive (TCP flushes on close), while segments in
// flight *toward* the closer are silently dropped (the closer's inbox is
// closed, so their delivery TryPut vanishes — like data landing in a
// closed socket's buffer).
func TestConnCloseInFlightAsymmetry(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	src := n.Attach(0)
	dst := n.Attach(1)
	l, err := dst.Listen(9000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	var serverGot []any
	var serverRecvErr, serverSendErr error
	k.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		// A large segment toward the client: still in flight when the
		// client closes (the client's small send finishes pacing first).
		serverSendErr = c.Send(p, 400_000, "to-client")
		for {
			seg, err := c.Recv(p)
			if err != nil {
				serverRecvErr = err
				return
			}
			serverGot = append(serverGot, seg.Payload)
		}
	})

	var clientRecvErr error
	k.Spawn("client", func(p *sim.Proc) {
		c, err := src.Dial(p, 1, 9000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(p, 50_000, "to-server"); err != nil {
			t.Errorf("client send: %v", err)
		}
		c.Close() // both directions now have in-flight data
		_, clientRecvErr = c.Recv(p)
	})
	k.Run()

	// Flushed direction: the closer's segment arrived, then the peer's
	// Recv drained to ErrConnClosed.
	if len(serverGot) != 1 || serverGot[0] != "to-server" {
		t.Errorf("server received %v, want the closer's flushed segment", serverGot)
	}
	if serverRecvErr != ErrConnClosed {
		t.Errorf("server recv error = %v, want ErrConnClosed after drain", serverRecvErr)
	}
	// Dropped direction: the send toward the closer was accepted —
	// and its delivery silently discarded.
	if serverSendErr != nil {
		t.Errorf("server send = %v, want accepted (drop is silent)", serverSendErr)
	}
	if clientRecvErr != ErrConnClosed {
		t.Errorf("client recv error = %v, want ErrConnClosed (in-flight data dropped)", clientRecvErr)
	}
}
