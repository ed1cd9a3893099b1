package netwire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pvmigrate/internal/netsim"
)

// Stream frame header: seq u64 | length u32.
const streamHeaderLen = 12

// maxFrame bounds a single stream frame's encoded payload; anything larger
// indicates a desynchronized reader, not a legitimate message.
const maxFrame = 64 << 20

// Listen implements netsim.Wire: open a real TCP listener standing in for
// the simulated (host, port) and start accepting. The listener binds an
// ephemeral loopback port; Dial looks up the mapping, so simulated port
// numbers never collide with real ones.
func (b *Backend) Listen(h netsim.HostID, port int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrShutdown
	}
	hp := hostPort{host: h, port: port}
	if _, ok := b.listeners[hp]; ok {
		return fmt.Errorf("netwire: host %d port %d already listening", h, port)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("netwire: listen host %d port %d: %w", h, port, err)
	}
	b.listeners[hp] = &wireListener{ln: ln}
	go b.acceptLoop(ln)
	return nil
}

// CloseListen implements netsim.Wire: tear down the real listener for the
// simulated (host, port). Established streams are unaffected.
func (b *Backend) CloseListen(h netsim.HostID, port int) {
	b.mu.Lock()
	wl, ok := b.listeners[hostPort{host: h, port: port}]
	if ok {
		delete(b.listeners, hostPort{host: h, port: port})
	}
	b.mu.Unlock()
	if ok {
		wl.ln.Close() // acceptLoop exits on the close error
	}
}

// acceptLoop runs per real listener; each accepted connection is matched
// to its dialer by nonce on a short-lived goroutine so one slow handshake
// cannot block the next accept.
func (b *Backend) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go b.matchDial(c)
	}
}

// matchDial reads the 8-byte dial nonce and hands the connection to the
// waiting Dial. Unknown nonces (stale dials that already timed out) are
// dropped.
func (b *Backend) matchDial(c net.Conn) {
	var nb [8]byte
	c.SetReadDeadline(time.Now().Add(wireTimeout))
	if _, err := io.ReadFull(c, nb[:]); err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	nonce := binary.BigEndian.Uint64(nb[:])
	b.mu.Lock()
	ch, ok := b.dials[nonce]
	if ok {
		delete(b.dials, nonce)
	}
	b.mu.Unlock()
	if !ok {
		c.Close()
		return
	}
	ch <- c // cap 1; Dial may have timed out, in which case it drains and closes
}

// Dial implements netsim.Wire: open a real TCP connection to the listener
// standing in for (dst, port) and return both endpoints' WireConns. The
// dialer writes an 8-byte nonce first so the accept side can pair the raw
// connection with this call even when several dials race.
func (b *Backend) Dial(src, dst netsim.HostID, port int) (client, server netsim.WireConn, err error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, nil, ErrShutdown
	}
	wl, ok := b.listeners[hostPort{host: dst, port: port}]
	if !ok {
		b.mu.Unlock()
		return nil, nil, fmt.Errorf("netwire: no listener for host %d port %d", dst, port)
	}
	addr := wl.ln.Addr().String()
	b.nextNonce++
	nonce := b.nextNonce
	ch := make(chan net.Conn, 1)
	b.dials[nonce] = ch
	b.mu.Unlock()

	abort := func() {
		b.mu.Lock()
		delete(b.dials, nonce)
		b.mu.Unlock()
	}
	cc, err := net.DialTimeout("tcp", addr, wireTimeout)
	if err != nil {
		abort()
		return nil, nil, fmt.Errorf("netwire: dial host %d port %d: %w", dst, port, err)
	}
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	cc.SetWriteDeadline(time.Now().Add(wireTimeout))
	if _, err := cc.Write(nb[:]); err != nil {
		abort()
		cc.Close()
		return nil, nil, fmt.Errorf("netwire: dial handshake: %w", err)
	}
	cc.SetWriteDeadline(time.Time{})

	sc, ok, timedOut := awaitWire(ch)
	if timedOut {
		abort()
		cc.Close()
		return nil, nil, fmt.Errorf("netwire: dial host %d port %d not accepted: %w", dst, port, ErrTimeout)
	}
	if !ok || sc == nil {
		cc.Close()
		return nil, nil, ErrShutdown
	}
	b.mu.Lock()
	b.stats.Streams++
	b.mu.Unlock()
	return b.newStream(cc), b.newStream(sc), nil
}

// stream is one endpoint of a real TCP connection backing a simulated
// netsim.Conn. The kernel goroutine calls Send at a segment's virtual
// send time and the peer's Recv (inside AwaitExternal) at its virtual
// delivery time; the reader goroutine parks frames by sequence number in
// between. Frames may be redeemed out of order relative to arrival —
// matching is by seq, never by position.
type stream struct {
	b    *Backend
	id   uint64 // registration key in Backend.streams
	conn net.Conn

	// hdr and iov are the send path's pooled buffers: the frame header is
	// assembled in hdr and handed to the kernel with the payload as a
	// two-element scatter-gather list (writev on TCP), so the payload is
	// never copied into a contiguous frame. Send runs on the kernel
	// goroutine only, so neither needs the lock.
	hdr [streamHeaderLen]byte
	iov net.Buffers

	mu      sync.Mutex
	frames  map[uint64][]byte
	waiters map[uint64]chan []byte
	err     error // first reader failure; set means no further frames will arrive
	closed  bool
}

func (b *Backend) newStream(c net.Conn) *stream {
	s := &stream{
		b:       b,
		conn:    c,
		frames:  make(map[uint64][]byte),
		waiters: make(map[uint64]chan []byte),
	}
	b.mu.Lock()
	b.nextSID++
	s.id = b.nextSID
	b.streams[s.id] = s
	b.mu.Unlock()
	go s.read()
	return s
}

// Send implements netsim.WireConn: encode into the backend's pooled
// scratch and write one seq-tagged frame as a header+payload
// scatter-gather pair. netsim calls this from the kernel goroutine only,
// so writes are already serialized per stream (and across streams, which
// is what lets every stream share the one scratch buffer).
func (s *stream) Send(seq uint64, payload any) error {
	data, err := s.b.codec.AppendEncode(s.b.encScratch[:0], payload)
	if err != nil {
		return err
	}
	s.b.encScratch = data[:0] // retain grown capacity for the next frame
	if len(data) > maxFrame {
		return fmt.Errorf("netwire: frame seq %d: %d bytes exceeds maxFrame", seq, len(data)) // lint:alloc error path, oversized frame
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("netwire: send seq %d on closed stream", seq) // lint:alloc error path, stream already torn down
	}
	s.mu.Unlock()

	n := len(data)
	binary.BigEndian.PutUint64(s.hdr[0:], seq)
	binary.BigEndian.PutUint32(s.hdr[8:], uint32(n))
	s.iov = append(s.iov[:0], s.hdr[:], data)
	s.conn.SetWriteDeadline(time.Now().Add(wireTimeout))
	if _, err := s.iov.WriteTo(s.conn); err != nil {
		return fmt.Errorf("netwire: send seq %d: %w", seq, err) // lint:alloc error path, after the write already failed
	}
	s.conn.SetWriteDeadline(time.Time{})

	s.b.mu.Lock()
	s.b.stats.StreamFrames++
	s.b.stats.StreamBytes += int64(n)
	s.b.mu.Unlock()
	return nil
}

// Recv implements netsim.WireConn: block (inside AwaitExternal — virtual
// time frozen) until the frame tagged seq has been read off this endpoint,
// then decode it. An error means the stream was torn down before the frame
// arrived; netsim treats that delivery as dropped, which only happens for
// segments the simulation also drops (in-flight toward a closed endpoint).
func (s *stream) Recv(seq uint64) (any, error) {
	s.mu.Lock()
	if data, ok := s.frames[seq]; ok {
		delete(s.frames, seq)
		s.mu.Unlock()
		return s.b.codec.Decode(data)
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, fmt.Errorf("netwire: recv seq %d on dead stream: %w", seq, err)
	}
	ch := make(chan []byte, 1)
	s.waiters[seq] = ch
	s.mu.Unlock()

	data, ok, timedOut := awaitWire(ch)
	if timedOut {
		s.mu.Lock()
		delete(s.waiters, seq)
		s.mu.Unlock()
		return nil, fmt.Errorf("netwire: frame seq %d never arrived: %w", seq, ErrTimeout)
	}
	if !ok {
		return nil, fmt.Errorf("netwire: recv seq %d: stream torn down", seq)
	}
	return s.b.codec.Decode(data)
}

// Close implements netsim.WireConn: idempotent teardown of this endpoint.
// netsim schedules it after the last in-flight delivery it intends to
// redeem, so the reader failing afterward wakes only waiters for frames
// the simulation has already decided to drop.
func (s *stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.conn.Close()
	s.b.mu.Lock()
	delete(s.b.streams, s.id)
	s.b.mu.Unlock()
}

// read is the per-endpoint bridge goroutine: it parses seq-tagged frames
// off the TCP connection and parks them for Recv. It exits on the first
// read error (peer close, our Close, Shutdown), waking all parked waiters
// with a torn-down error.
func (s *stream) read() {
	var hdr [streamHeaderLen]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			s.fail(err)
			return
		}
		seq := binary.BigEndian.Uint64(hdr[0:])
		n := binary.BigEndian.Uint32(hdr[8:])
		if n > maxFrame {
			s.fail(fmt.Errorf("netwire: frame seq %d: length %d exceeds maxFrame", seq, n))
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(s.conn, data); err != nil {
			s.fail(err)
			return
		}
		s.mu.Lock()
		if ch, ok := s.waiters[seq]; ok {
			delete(s.waiters, seq)
			s.mu.Unlock()
			ch <- data // cap 1; one frame per seq
		} else {
			s.frames[seq] = data
			s.mu.Unlock()
		}
	}
}

// fail records the reader's terminal error and wakes every parked waiter.
func (s *stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	chans := make([]chan []byte, 0, len(s.waiters))
	for _, seq := range sortedKeys(s.waiters) {
		chans = append(chans, s.waiters[seq])
	}
	s.waiters = make(map[uint64]chan []byte)
	s.mu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
}

var _ netsim.WireConn = (*stream)(nil)
