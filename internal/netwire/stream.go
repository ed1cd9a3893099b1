package netwire

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/wirefmt"
)

// Stream frame header: seq u64 | length u32.
const streamHeaderLen = 12

// readBuffer sizes a stream endpoint's bufio.Reader: one read takes in a
// typical frame, header and body, and larger bodies are read straight into
// the endpoint's scratch.
const readBuffer = 512

// maxFrame bounds a single stream frame's encoded payload; anything larger
// indicates a desynchronized reader, not a legitimate message.
const maxFrame = 64 << 20

// Listen implements netsim.Wire: record that the simulated (host, port)
// accepts streams. No socket is opened: every simulated Dial connects to
// the backend's one real listener, and the nonce the dialer writes pairs
// the two ends, so simulated port numbers never meet real ones.
func (b *Backend) Listen(h netsim.HostID, port int) error {
	if b.closed.Load() {
		return ErrShutdown
	}
	hp := hostPort{host: h, port: port}
	if _, ok := b.listening[hp]; ok {
		return errs.New(CodeListen, "already listening", nil).AddContext("host", h).AddContext("port", port)
	}
	b.listening[hp] = struct{}{}
	return nil
}

// CloseListen implements netsim.Wire: the simulated (host, port) stops
// accepting streams. Established streams are unaffected.
func (b *Backend) CloseListen(h netsim.HostID, port int) {
	delete(b.listening, hostPort{host: h, port: port})
}

// Dial implements netsim.Wire: open a real TCP connection to the backend's
// listener (opening it on the first Dial) and return both endpoints'
// WireConns. The dialer writes an 8-byte nonce first; on loopback the
// connect completes into the listener's backlog, so the Accept that
// follows on the same goroutine finds it there and checks the nonce to pair
// the two ends.
func (b *Backend) Dial(src, dst netsim.HostID, port int) (client, server netsim.WireConn, err error) {
	if b.closed.Load() {
		return nil, nil, ErrShutdown
	}
	if _, ok := b.listening[hostPort{host: dst, port: port}]; !ok {
		return nil, nil, errs.New(CodeDial, "no listener", nil).AddContext("host", dst).AddContext("port", port)
	}
	if b.ln == nil {
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, nil, errs.New(CodeListen, "listen", err).AddContext("host", dst).AddContext("port", port)
		}
		b.ln = ln
	}
	cc, err := net.DialTimeout("tcp", b.ln.Addr().String(), wireTimeout)
	if err != nil {
		return nil, nil, errs.New(CodeDial, "connect", err).AddContext("host", dst).AddContext("port", port)
	}
	c := b.newStream(cc)
	b.nextNonce++
	nonce := b.nextNonce
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	armDeadline(cc, &c.deadline)
	if _, err := cc.Write(nb[:]); err != nil {
		c.Close()
		return nil, nil, errs.New(CodeDial, "handshake", b.sockErr("write nonce", err)).AddContext("host", dst).AddContext("port", port)
	}
	s, err := b.accept(b.ln, nonce)
	if err != nil {
		c.Close()
		return nil, nil, errs.New(CodeDial, "accept", err).AddContext("host", dst).AddContext("port", port)
	}
	c.peer, s.peer = s, c
	b.stats.Streams++
	return c, s, nil
}

// accept takes connections off ln's backlog until the one whose nonce
// matches. Any other is left over from a dial that failed after
// connecting, and is closed.
func (b *Backend) accept(ln *net.TCPListener, nonce uint64) (*stream, error) {
	_ = ln.SetDeadline(time.Now().Add(wireTimeout))
	var nb [8]byte
	for {
		c, err := ln.Accept()
		if err != nil {
			return nil, b.sockErr("accept", err)
		}
		s := b.newStream(c)
		armDeadline(c, &s.deadline)
		if _, err := io.ReadFull(s.rd, nb[:]); err == nil && binary.BigEndian.Uint64(nb[:]) == nonce {
			return s, nil
		}
		s.Close()
	}
}

// stream is one endpoint of a real TCP connection backing a simulated
// netsim.Conn. The kernel goroutine calls Send at a segment's virtual
// send time and the peer's Recv (inside AwaitExternal) at its virtual
// delivery time; Recv reads frames off the connection until seq turns up
// and parks the others by sequence number. Frames may be redeemed out of
// order relative to arrival — matching is by seq, never by position.
type stream struct {
	b        *Backend
	conn     net.Conn
	peer     *stream // the other endpoint: Send's frames are read off peer
	deadline time.Time

	// hdr, vec and iov are the send path's pooled buffers: the frame
	// header is assembled in hdr and handed to the kernel with the payload
	// as a two-element scatter-gather list (writev on TCP), so the payload
	// is never copied into a contiguous frame. iov is a slice of vec, not
	// an appended list: net.Buffers.WriteTo consumes it down to a
	// zero-capacity tail, so appending to what it leaves would allocate a
	// new list for every frame.
	hdr [streamHeaderLen]byte
	vec [2][]byte
	iov net.Buffers

	rd      *bufio.Reader
	rhdr    [streamHeaderLen]byte
	scratch []byte            // the last frame read; its Recv decodes it in place
	parked  map[uint64][]byte // copies of frames read before their Recv asked
	unread  backlog           // frames the peer wrote that are still on conn
	err     error             // first read failure; set means no further frames will arrive
	closed  bool
}

func (b *Backend) newStream(c net.Conn) *stream {
	s := &stream{b: b, conn: c, rd: bufio.NewReaderSize(c, readBuffer), parked: make(map[uint64][]byte)}
	b.streams[s] = struct{}{}
	return s
}

// Send implements netsim.WireConn: encode into the backend's pooled
// scratch and write one seq-tagged frame as a header+payload
// scatter-gather pair. Every stream shares the one scratch buffer because
// every Send runs on the kernel goroutine.
func (s *stream) Send(seq uint64, payload any) error {
	data, err := s.b.codec.AppendEncode(s.b.encScratch[:0], payload)
	if err != nil {
		return err
	}
	s.b.encScratch = data[:0] // retain grown capacity for the next frame
	n := len(data)
	if n > maxFrame {
		return errs.New(wirefmt.CodeOversized, "send frame larger than maxFrame", nil).AddContext("seq", seq).AddContext("bytes", n)
	}
	if s.closed {
		return errs.New(CodeStreamClosed, "send on closed stream", nil).AddContext("seq", seq)
	}
	if s.peer.unread.full(streamHeaderLen + n) {
		if err := s.peer.drain(); err != nil {
			return err.AddContext("seq", seq)
		}
	}

	binary.BigEndian.PutUint64(s.hdr[0:], seq)
	binary.BigEndian.PutUint32(s.hdr[8:], uint32(n))
	s.vec = [2][]byte{s.hdr[:], data}
	s.iov = s.vec[:]
	armDeadline(s.conn, &s.deadline)
	if _, err := s.iov.WriteTo(s.conn); err != nil {
		return s.b.sockErr("send frame", err).AddContext("seq", seq)
	}
	s.peer.unread.n++
	s.peer.unread.bytes += streamHeaderLen + n

	s.b.stats.StreamFrames++
	s.b.stats.StreamBytes += int64(n)
	return nil
}

// Recv implements netsim.WireConn: read frames off this endpoint (inside
// AwaitExternal — virtual time frozen) until the one tagged seq, then
// decode it. An error means the stream was torn down before the frame
// arrived; netsim treats that delivery as dropped, which only happens for
// segments the simulation also drops (in-flight toward a closed endpoint).
func (s *stream) Recv(seq uint64) (any, error) {
	data, ok := s.parked[seq]
	delete(s.parked, seq)
	for !ok {
		got, d, err := s.readFrame()
		if err != nil {
			return nil, err.AddContext("seq", seq)
		}
		if got == seq {
			data, ok = d, true
		} else {
			s.park(got, d)
		}
	}
	return s.b.codec.Decode(data)
}

// drain reads every frame still unread on s into the parked map.
func (s *stream) drain() *errs.Error {
	for s.unread.n > 0 {
		seq, data, err := s.readFrame()
		if err != nil {
			return err
		}
		s.park(seq, data)
	}
	return nil
}

// park keeps a copy of a frame read before its Recv asked: the frame itself
// sits in the scratch the next read overwrites.
func (s *stream) park(seq uint64, data []byte) {
	s.parked[seq] = append([]byte(nil), data...) // lint:alloc parks a frame read ahead of its Recv
}

// readFrame reads the next seq-tagged frame off the connection into the
// endpoint's scratch, valid until the next read. After the first failure
// the stream is dead: the reader may be mid-frame.
func (s *stream) readFrame() (uint64, []byte, *errs.Error) {
	switch {
	case s.closed:
		return 0, nil, errs.New(CodeStreamClosed, "recv on closed stream", nil)
	case s.err != nil:
		return 0, nil, errs.New(CodeStreamClosed, "recv on dead stream", s.err)
	}
	armDeadline(s.conn, &s.deadline)
	if _, err := io.ReadFull(s.rd, s.rhdr[:]); err != nil {
		return 0, nil, s.fail("recv frame header", err)
	}
	seq := binary.BigEndian.Uint64(s.rhdr[0:])
	n := binary.BigEndian.Uint32(s.rhdr[8:])
	if n > maxFrame {
		return 0, nil, s.fail("recv frame", errs.New(wirefmt.CodeOversized, "frame larger than maxFrame", nil).AddContext("bytes", n))
	}
	if cap(s.scratch) < int(n) {
		s.scratch = make([]byte, n) // lint:alloc grows the read scratch to the largest frame yet
	}
	data := s.scratch[:n]
	if _, err := io.ReadFull(s.rd, data); err != nil {
		return 0, nil, s.fail("recv frame body", err)
	}
	s.unread.n--
	s.unread.bytes -= streamHeaderLen + int(n)
	return seq, data, nil
}

// fail records the stream's first read failure and classifies it.
func (s *stream) fail(stage string, err error) *errs.Error {
	s.err = err
	return s.b.sockErr(stage, err)
}

// Close implements netsim.WireConn: idempotent teardown of this endpoint.
// netsim schedules it after the last in-flight delivery it intends to
// redeem.
func (s *stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.conn.Close()
	delete(s.b.streams, s)
}

var _ netsim.WireConn = (*stream)(nil)
