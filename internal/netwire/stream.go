package netwire

import (
	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
)

// Listen implements netsim.Wire. A stream needs no socket of its own (its
// frames ride the hosts' datagram pairs), and netsim itself refuses a
// second Listen on a port and dials only a live listener, so this only
// fails after Shutdown.
func (b *Backend) Listen(h netsim.HostID, port int) error {
	if b.closed.Load() {
		return ErrShutdown
	}
	return nil
}

// CloseListen implements netsim.Wire: there is nothing to tear down.
func (b *Backend) CloseListen(h netsim.HostID, port int) {}

// Dial implements netsim.Wire: pair two stream endpoints, one on src and
// one on dst. It fails only after Shutdown.
func (b *Backend) Dial(src, dst netsim.HostID, port int) (client, server netsim.WireConn, err error) {
	if b.closed.Load() {
		return nil, nil, ErrShutdown
	}
	c := &stream{b: b, host: src, pending: make(map[uint64]uint64)}
	s := &stream{b: b, host: dst, pending: make(map[uint64]uint64)}
	c.peer, s.peer = s, c
	b.stats.Streams++
	return c, s, nil
}

// stream is one endpoint of a simulated netsim.Conn. Its frames travel
// exactly as datagrams do, into the peer host's one pair; the endpoint
// only remembers which token redeems each sequence number. The kernel
// goroutine calls Send at a segment's virtual send time and the peer's
// Recv (inside AwaitExternal) at its virtual delivery time. Frames may be
// redeemed in any order: matching is by seq, never by position.
type stream struct {
	b       *Backend
	host    netsim.HostID
	peer    *stream           // the other endpoint: Send's frames are the peer's to Recv
	pending map[uint64]uint64 // seq → token of each frame sent toward this endpoint, until redeemed
	closed  bool
}

// Send implements netsim.WireConn: write one frame into the peer host's
// pair through the datagram send path, and record its token with the peer
// under seq.
func (s *stream) Send(seq uint64, payload any) error {
	if s.closed {
		return errs.New(CodeStreamClosed, "send on closed stream", nil).AddContext("seq", seq)
	}
	tok, n, pkts, err := s.b.send(s.peer.host, payload)
	if err != nil {
		return err
	}
	s.peer.pending[seq] = tok
	s.b.stats.StreamFrames++
	s.b.stats.StreamPackets += int64(pkts)
	s.b.stats.StreamBytes += int64(n)
	return nil
}

// Recv implements netsim.WireConn: redeem frame seq's token (inside
// AwaitExternal — virtual time frozen), then decode it. A seq the peer
// never sent fails at once. A frame toward an endpoint closed before its
// Recv is still read off the pair, keeping it in step, and is then
// reported lost; netsim drops that delivery, as the simulation drops
// segments in flight toward a closed endpoint.
func (s *stream) Recv(seq uint64) (any, error) {
	tok, ok := s.pending[seq]
	if !ok {
		return nil, errs.New(CodeUnknownToken, "recv frame: seq never sent or already redeemed", nil).AddContext("seq", seq)
	}
	delete(s.pending, seq)
	data, err := s.b.recv(tok)
	if err != nil {
		return nil, err.AddContext("seq", seq)
	}
	if s.closed {
		return nil, errs.New(CodeStreamClosed, "recv on closed stream", nil).AddContext("seq", seq)
	}
	return s.b.codec.Decode(data)
}

// Close implements netsim.WireConn: idempotent teardown of this endpoint.
// netsim schedules it after the last in-flight delivery it intends to
// redeem.
func (s *stream) Close() {
	s.closed = true
}

var _ netsim.WireConn = (*stream)(nil)
