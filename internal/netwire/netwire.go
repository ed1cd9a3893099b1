// Package netwire is the real-socket transport backend behind
// netsim.Wire: every cross-host frame the simulated network delivers, a
// datagram or a stream segment alike, also rides loopback UDP to its
// destination host's one socket, round-tripping through marshal → syscall
// → unmarshal before the receiver sees it.
//
// The deterministic kernel stays the only clock. netsim computes every
// arrival time from its cost model exactly as in the in-memory backend;
// netwire substitutes *payload bytes only*, never timing. At a frame's
// virtual send time the payload is encoded and written to a socket; at its
// virtual delivery time the kernel calls sim.Kernel.AwaitExternal, which
// freezes virtual time while the matching bytes are read back and decoded.
// Wall-clock latency of the socket round trip is therefore invisible to
// the simulation — fingerprints stay seed-deterministic while payloads
// prove they survive a real wire. TCP's own behaviour (ordering, pacing,
// flush on close) is netsim's to model, so a stream endpoint here is
// bookkeeping only: it maps each sequence number to the token of the
// frame that carries it.
//
// The backend is confined to the kernel goroutine, the only caller of
// every method (netsim is single-threaded): a receive reads its socket
// itself, inside the AwaitExternal that froze virtual time for it, and
// parks any other frame it reads first, by token, for the receive that
// asks for it later. Nothing here starts a goroutine, takes a lock or
// waits on a channel; Shutdown may run on another goroutine once the
// kernel has stopped, and only flips an atomic flag and closes sockets.
//
// Each host's socket is a raw, blocking file descriptor made with package
// syscall, never registered with the Go runtime's netpoller. The kernel
// goroutine never waits for a socket to become ready: it reads a frame only
// after writing it, so the bytes are already queued. A netpoller-registered
// socket would still wake the thread parked in the poller for every packet
// that lands, a cross-CPU wakeup per frame that the simulation never asked
// for. Every read and write is bounded by the socket's SO_RCVTIMEO and
// SO_SNDTIMEO, set to wireTimeout once at bind; netwire is allowlisted in
// internal/lint.Config.WallClockAllow for the one wall-clock read that
// bounds a call retried after signals (restart).
package netwire

import (
	"encoding/binary"
	"sync/atomic"
	"syscall"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
)

// wireTimeout bounds every blocking socket operation (SO_RCVTIMEO and
// SO_SNDTIMEO). The simulation is correct only if every frame written is
// eventually read back, so a wait this long means bytes were truly lost
// (or a bug desynchronized send and receive bookkeeping); the bounded wait
// turns that hang into an error the caller can surface. Loopback sockets
// make 30s effectively infinite.
const wireTimeout = 30 * time.Second

// maxChunk is the datagram fragment payload size. Loopback UDP carries
// ~64KB per packet; 32KB chunks leave comfortable headroom for the header
// while keeping fragment counts low for typical control messages (which
// fit in one).
const maxChunk = 32 << 10

// dgramMagic guards against stray traffic on the ephemeral UDP ports.
const dgramMagic = 0x70766d77 // "pvmw"

// Datagram fragment header: magic u32 | token u64 | fragIdx u16 | nFrags u16.
const dgramHeaderLen = 16

// backlogBound and backlogBytes cap what a socket may hold unread. The
// kernel goroutine is every socket's only reader, so nothing drains a
// socket between its receives: a send that would leave more than
// backlogBound packets or backlogBytes bytes unread on its destination
// first reads everything there into the parked map. A burst therefore
// cannot overflow a UDP receive buffer, which would drop it.
const (
	backlogBound = 256
	backlogBytes = 128 << 10
)

// The wire.* codes of the transport itself (wirefmt holds the codec's).
const (
	// CodeShutdown: the backend was shut down.
	CodeShutdown errs.Code = "wire.shutdown"
	// CodeTimeout: a socket operation outlived wireTimeout.
	CodeTimeout errs.Code = "wire.timeout"
	// CodeStreamClosed: a stream endpoint was closed before the send, or
	// before the frame's receive.
	CodeStreamClosed errs.Code = "wire.stream-closed"
	// CodeUnknownToken: RecvDgram was given a token SendDgram never issued,
	// or a stream Recv a seq its peer never sent; or either was already
	// redeemed.
	CodeUnknownToken errs.Code = "wire.unknown-token"
	// CodeIO: a socket read or write failed for any other reason.
	CodeIO errs.Code = "wire.io"
)

// ErrShutdown is returned by operations on a Backend after Shutdown.
var ErrShutdown = errs.New(CodeShutdown, "netwire: backend shut down", nil)

// ErrTimeout is wrapped into errors from waits that exceeded wireTimeout.
var ErrTimeout = errs.New(CodeTimeout, "netwire: wire timeout", nil)

// Stats counts real traffic carried for the simulation. All fields are
// cumulative since New.
type Stats struct {
	Dgrams       int64 // datagrams sent (logical, pre-fragmentation)
	DgramPackets int64 // UDP packets those datagrams took (after fragmentation)
	DgramBytes   int64 // encoded payload bytes across all datagrams
	Streams      int64 // streams opened (Dial calls)
	StreamFrames int64 // stream frames sent
	StreamBytes  int64 // encoded payload bytes across all stream frames
}

// Backend implements netsim.Wire over loopback sockets: one UDP socket per
// host carries every frame toward that host, datagram or stream. Install
// it via netsim.Params.Wire and Shutdown it when the run ends. Every
// method but Shutdown runs on the kernel goroutine.
type Backend struct {
	codec WireCodec

	// encScratch and pkt are the pooled buffers of the one frame path.
	// encScratch holds one frame's codec output and is retained between
	// sends, so a steady-state encode costs zero allocations; pkt is the
	// one fixed-size packet buffer, where a send assembles header + one
	// fragment and every UDP read lands (never both at once). A frame
	// read into pkt is decoded straight from it and copied only if it is
	// parked for a later receive.
	encScratch []byte
	pkt        []byte

	closed    atomic.Bool
	hosts     map[netsim.HostID]*hostSock
	sent      map[uint64]*hostSock // token → destination socket, until redeemed
	arrived   map[uint64][]byte    // frames read before their receive asked
	partials  map[uint64]*partial  // frames with fragments still unread
	nextToken uint64
	stats     Stats
}

type hostSock struct {
	host   netsim.HostID
	fd     int
	sa     syscall.SockaddrInet4 // the socket's own address, where a send toward the host goes
	unread backlog
}

// backlog counts what has been written toward a socket and not yet read.
type backlog struct{ n, bytes int }

// full reports whether one more packet of bytes would exceed the backlog
// bounds.
func (q *backlog) full(bytes int) bool {
	return q.n >= backlogBound || q.bytes+bytes > backlogBytes
}

// partial is a frame under reassembly: fragment i lands at i·maxChunk.
type partial struct {
	data []byte
	size int // payload length, known once the last fragment arrived
	got  int // fragments received
}

// New builds a Backend using the default BinaryCodec (internal/wirefmt).
func New() *Backend {
	return NewWithCodec(BinaryCodec{})
}

// NewWithCodec builds a Backend with a custom payload codec (anything
// implementing WireCodec, e.g. a decorator timing BinaryCodec).
func NewWithCodec(c WireCodec) *Backend {
	return &Backend{
		codec:    c,
		pkt:      make([]byte, dgramHeaderLen+maxChunk+512),
		hosts:    make(map[netsim.HostID]*hostSock),
		sent:     make(map[uint64]*hostSock),
		arrived:  make(map[uint64][]byte),
		partials: make(map[uint64]*partial),
	}
}

// sockErr classifies a failed socket operation at stage: a socket closed
// by Shutdown, a call that outlived its socket timeout (EAGAIN), or plain
// I/O failure.
func (b *Backend) sockErr(stage string, err error) *errs.Error {
	switch {
	case b.closed.Load():
		return errs.New(CodeShutdown, stage, ErrShutdown)
	case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
		return errs.New(CodeTimeout, stage, ErrTimeout)
	}
	return errs.New(CodeIO, stage, err)
}

// sockCall is one socket call on fd with the packet buffer pkt: sendto,
// toward to, or read.
type sockCall func(fd int, pkt []byte, to *syscall.SockaddrInet4) (int, error)

func sendto(fd int, pkt []byte, to *syscall.SockaddrInet4) (int, error) {
	return len(pkt), syscall.Sendto(fd, pkt, 0, to)
}

func read(fd int, pkt []byte, _ *syscall.SockaddrInet4) (int, error) {
	return syscall.Read(fd, pkt)
}

// restart makes call, and makes it again while a signal interrupts it: a
// call on a socket with SO_RCVTIMEO or SO_SNDTIMEO set fails with EINTR
// when a signal handler runs, even one installed with SA_RESTART, as the Go
// runtime installs its own (signal(7)). Once wireTimeout has passed since
// the first interruption it gives up with EAGAIN, the timeout, so a steady
// stream of signals cannot stretch a wait without bound. Only an
// interrupted call reads the wall clock.
func restart(call sockCall, fd int, pkt []byte, to *syscall.SockaddrInet4) (int, error) {
	var first time.Time
	for {
		n, err := call(fd, pkt, to)
		if err != syscall.EINTR {
			return n, err
		}
		if first.IsZero() {
			first = time.Now()
		} else if time.Since(first) >= wireTimeout {
			return 0, syscall.EAGAIN
		}
	}
}

// AttachHost implements netsim.Wire: it binds the host's loopback UDP
// socket. Binding can only fail for environmental reasons (no loopback
// interface, fd exhaustion) that make the whole run impossible, so failure
// panics rather than limping on.
func (b *Backend) AttachHost(h netsim.HostID) {
	if b.closed.Load() {
		panic("netwire: AttachHost after Shutdown")
	}
	if _, err := b.host(h); err != nil {
		panic(err.Error())
	}
}

// host returns the UDP socket for h, binding it on first use.
func (b *Backend) host(h netsim.HostID) (*hostSock, error) {
	if s, ok := b.hosts[h]; ok {
		return s, nil
	}
	s, err := bind(h)
	if err != nil {
		return nil, errs.New(CodeIO, "bind datagram socket", err).AddContext("host", h)
	}
	b.hosts[h] = s
	return s, nil
}

// bind opens host h's socket: blocking UDP on 127.0.0.1 at a port the
// kernel picks, close-on-exec, with every read and write bounded by
// wireTimeout. CloseOnExec runs under syscall.ForkLock, as package net
// does where SOCK_CLOEXEC is missing (darwin), so a concurrent fork+exec
// cannot inherit the descriptor.
func bind(h netsim.HostID) (*hostSock, error) {
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM, syscall.IPPROTO_UDP)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, err
	}
	// lint:alloc first-use socket bind, once per host; steady-state sends hit the cache in host
	s := &hostSock{host: h, fd: fd, sa: syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}}
	// A large kernel buffer keeps loopback loss out of the picture between
	// the kernel goroutine's reads; the backlog bounds cap what it holds.
	// The kernel clamps the size to its own limit instead of failing.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 8<<20)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 8<<20)
	tv := syscall.NsecToTimeval(int64(wireTimeout))
	err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv)
	if err == nil {
		err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv)
	}
	if err == nil {
		err = syscall.Bind(fd, &s.sa)
	}
	var sa syscall.Sockaddr
	if err == nil {
		sa, err = syscall.Getsockname(fd)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	s.sa.Port = sa.(*syscall.SockaddrInet4).Port
	return s, nil
}

// SendDgram implements netsim.Wire: write the payload toward dst's socket
// and return the token that RecvDgram redeems exactly once at the frame's
// virtual delivery time.
func (b *Backend) SendDgram(src netsim.HostID, srcPort int, dst netsim.HostID, dstPort int, payload any) (uint64, error) {
	tok, n, pkts, err := b.send(src, dst, payload)
	if err != nil {
		return 0, err
	}
	b.stats.Dgrams++
	b.stats.DgramPackets += int64(pkts)
	b.stats.DgramBytes += int64(n)
	return tok, nil
}

// RecvDgram implements netsim.Wire: redeem token (inside AwaitExternal —
// virtual time is frozen), then decode the datagram.
func (b *Backend) RecvDgram(token uint64) (any, error) {
	data, err := b.recv(token)
	if err != nil {
		return nil, err
	}
	return b.codec.Decode(data)
}

// send is the one frame send path. At the frame's virtual send time it
// encodes the payload into the pooled scratch buffer and writes it from
// src's socket toward dst's, fragmented into maxChunk pieces assembled in
// the pooled packet buffer, draining dst first whenever the backlog bound
// is reached. It returns the frame's token, its encoded length and the
// packets it took. Steady state this path performs no allocations: the
// codec appends into retained scratch, the packet buffer is fixed-size,
// and the destination's sockaddr lives in its hostSock.
func (b *Backend) send(src, dst netsim.HostID, payload any) (tok uint64, n, nfrags int, err error) {
	data, err := b.codec.AppendEncode(b.encScratch[:0], payload)
	if err != nil {
		return 0, 0, 0, err
	}
	b.encScratch = data[:0] // retain grown capacity for the next frame
	if b.closed.Load() {
		return 0, 0, 0, ErrShutdown
	}
	srcSock, err := b.host(src)
	if err != nil {
		return 0, 0, 0, err
	}
	dstSock, err := b.host(dst)
	if err != nil {
		return 0, 0, 0, err
	}
	b.nextToken++
	tok = b.nextToken

	nfrags = (len(data) + maxChunk - 1) / maxChunk
	if nfrags == 0 {
		nfrags = 1 // zero-byte payloads still travel as one packet
	}
	for i := 0; i < nfrags; i++ {
		frag := data[i*maxChunk : min(len(data), (i+1)*maxChunk)]
		if dstSock.unread.full(len(frag)) {
			if err := b.drain(dstSock); err != nil {
				return 0, 0, 0, err
			}
		}
		pkt := b.pkt[:dgramHeaderLen+len(frag)]
		binary.BigEndian.PutUint32(pkt[0:], dgramMagic)
		binary.BigEndian.PutUint64(pkt[4:], tok)
		binary.BigEndian.PutUint16(pkt[12:], uint16(i))
		binary.BigEndian.PutUint16(pkt[14:], uint16(nfrags))
		copy(pkt[dgramHeaderLen:], frag)
		if _, err := restart(sendto, srcSock.fd, pkt, &dstSock.sa); err != nil {
			return 0, 0, 0, b.sockErr("send frame", err).AddContext("token", tok).AddContext("host", dst)
		}
		dstSock.unread.n++
		dstSock.unread.bytes += len(frag)
	}
	b.sent[tok] = dstSock
	return tok, len(data), nfrags, nil
}

// recv is the one frame receive path: read the destination socket until
// the frame identified by token is complete, parking the other frames read
// on the way. The returned bytes are valid until the next read or send.
func (b *Backend) recv(token uint64) ([]byte, *errs.Error) {
	if b.closed.Load() {
		return nil, errs.New(CodeShutdown, "recv frame", ErrShutdown)
	}
	s, ok := b.sent[token]
	if !ok {
		return nil, errs.New(CodeUnknownToken, "recv frame: token never sent or already redeemed", nil).AddContext("token", token)
	}
	delete(b.sent, token)
	data, ok := b.arrived[token]
	delete(b.arrived, token)
	for !ok {
		tok, d, inPkt, done, err := b.readPacket(s)
		switch {
		case err != nil:
			return nil, err.AddContext("token", token)
		case done && tok == token:
			data, ok = d, true
		case done:
			b.park(tok, d, inPkt)
		}
	}
	return data, nil
}

// drain reads every packet still unread on s, parking the frames they
// complete for their receives.
func (b *Backend) drain(s *hostSock) *errs.Error {
	for s.unread.n > 0 {
		tok, data, inPkt, done, err := b.readPacket(s)
		if err != nil {
			return err
		}
		if done {
			b.park(tok, data, inPkt)
		}
	}
	return nil
}

// park keeps a complete frame for the receive that redeems tok. One still
// in the packet buffer is copied out first: the next read or send
// overwrites it.
func (b *Backend) park(tok uint64, data []byte, inPkt bool) {
	if inPkt {
		data = append([]byte(nil), data...) // lint:alloc parks a frame read ahead of its receive
	}
	b.arrived[tok] = data
}

// readPacket reads one packet off s. A fragment joins its frame's partial;
// done reports that the packet completed the frame tok. A single-fragment
// frame's data is the packet buffer itself (inPkt), valid until the next
// read or send; a reassembled one owns its storage.
func (b *Backend) readPacket(s *hostSock) (tok uint64, data []byte, inPkt, done bool, _ *errs.Error) {
	n, err := restart(read, s.fd, b.pkt, nil)
	if err != nil {
		return 0, nil, false, false, b.sockErr("recv frame", err).AddContext("host", s.host)
	}
	pkt := b.pkt[:n]
	if n < dgramHeaderLen || binary.BigEndian.Uint32(pkt) != dgramMagic {
		return 0, nil, false, false, nil // stray traffic on the ephemeral port
	}
	frag := pkt[dgramHeaderLen:]
	s.unread.n--
	s.unread.bytes -= len(frag)
	tok = binary.BigEndian.Uint64(pkt[4:])
	idx := int(binary.BigEndian.Uint16(pkt[12:]))
	nfrags := int(binary.BigEndian.Uint16(pkt[14:]))
	if nfrags <= 1 {
		return tok, frag, true, true, nil
	}
	p := b.partials[tok]
	if p == nil {
		p = &partial{data: make([]byte, nfrags*maxChunk)} // lint:alloc reassembles a multi-fragment frame
		b.partials[tok] = p
	}
	if idx >= nfrags || len(p.data) != nfrags*maxChunk {
		return 0, nil, false, false, nil // inconsistent header: not one of ours
	}
	copy(p.data[idx*maxChunk:], frag)
	if idx == nfrags-1 {
		p.size = idx*maxChunk + len(frag)
	}
	if p.got++; p.got < nfrags {
		return 0, nil, false, false, nil
	}
	delete(b.partials, tok)
	return tok, p.data[:p.size], false, true, nil
}

// Stats returns a snapshot of the traffic counters.
func (b *Backend) Stats() Stats {
	return b.stats
}

// Shutdown closes every socket; later operations fail with ErrShutdown. It
// is idempotent and must be called when the run ends, after the kernel has
// stopped calling the backend.
func (b *Backend) Shutdown() {
	if b.closed.Swap(true) {
		return
	}
	for _, s := range b.hosts {
		syscall.Close(s.fd)
	}
}

var _ netsim.Wire = (*Backend)(nil)
