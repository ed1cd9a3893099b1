// Package netwire is the real-socket transport backend behind
// netsim.Wire: every cross-host frame the simulated network delivers, a
// datagram or a stream segment alike, also crosses a kernel socket into
// its destination host's one datagram pair, round-tripping through
// marshal → syscall → unmarshal before the receiver sees it.
//
// netwire substitutes *payload bytes only*, never timing: netsim computes
// every arrival time from its cost model exactly as in memory, and at a
// frame's virtual delivery time the kernel calls sim.Kernel.AwaitExternal,
// which freezes virtual time while the bytes are read back and decoded.
// Fingerprints stay seed-deterministic while payloads prove they survive a
// real wire. TCP's behaviour is netsim's to model too, so a stream
// endpoint here only maps each sequence number to its frame's token.
//
// The backend is confined to the kernel goroutine, the only caller of
// every method: a receive reads its host's pair itself, inside the
// AwaitExternal that froze virtual time for it, and parks any other frame
// it reads first, by token, for the receive that asks for it later.
// Nothing here starts a goroutine, takes a lock, waits on a channel or
// reads a clock; Shutdown may run on another goroutine once the kernel
// has stopped, and only flips an atomic flag and closes sockets.
//
// Each host's pair is an AF_UNIX datagram socketpair made with package
// syscall: the host reads one end and every sender writes the other. netsim
// models the link, so a frame has nothing to gain from the loopback IP
// stack. Both ends are non-blocking and outside the Go runtime's
// netpoller, which would wake a thread for every packet that lands. An
// AF_UNIX write is on its peer's receive queue when it returns, and a
// frame is read only after it was written, so a read never waits: one
// that finds the pair empty means the frame is lost (wire.lost).
package netwire

import (
	"encoding/binary"
	"sync/atomic"
	"syscall"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
)

// A packet is a header — magic u32 | token u64 | fragIdx u16 | nFrags u16
// — and one fragment of at most maxChunk bytes of its frame: 32KB keeps
// fragment counts low for state transfers, and every control message fits
// in one.
const (
	dgramMagic     = 0x70766d77 // "pvmw"
	dgramHeaderLen = 16
	maxChunk       = 32 << 10
	maxPacket      = dgramHeaderLen + maxChunk
)

// sockBuffer is the buffer bind asks for on each end of a pair: an unread
// datagram is charged to the writer's send buffer on Linux and to the
// reader's receive buffer on darwin, whose defaults are smaller than one
// packet. The kernel may grant less; bind fails below one full packet.
const sockBuffer = 4 << 20

// backlogBound and backlogBytes cap what a pair may hold unread. The
// kernel goroutine is every pair's only reader, so nothing drains a pair
// between its receives: a send that would leave more than backlogBound
// packets or backlogBytes bytes unread on its destination first reads
// everything there into the parked map. A write that finds the pair's
// buffer full before the bound drains it the same way.
const (
	backlogBound = 256
	backlogBytes = 128 << 10
)

// The wire.* codes of the transport itself (wirefmt holds the codec's).
const (
	// CodeShutdown: the backend was shut down.
	CodeShutdown errs.Code = "wire.shutdown"
	// CodeLost: a read found its host's pair empty while a packet written
	// to it was still unread.
	CodeLost errs.Code = "wire.lost"
	// CodeStreamClosed: a stream endpoint was closed before the send, or
	// before the frame's receive.
	CodeStreamClosed errs.Code = "wire.stream-closed"
	// CodeUnknownToken: a receive of a token or seq never sent, or one
	// already redeemed.
	CodeUnknownToken errs.Code = "wire.unknown-token"
	// CodeIO: a socket read or write failed for any other reason, or read a
	// packet that does not parse.
	CodeIO errs.Code = "wire.io"
)

// ErrShutdown is returned by operations on a Backend after Shutdown.
var ErrShutdown = errs.New(CodeShutdown, "netwire: backend shut down", nil)

// ErrLost is wrapped into errors from reads that found a frame missing.
var ErrLost = errs.New(CodeLost, "netwire: frame lost", nil)

// Stats counts real traffic carried for the simulation. All fields are
// cumulative since New.
type Stats struct {
	Dgrams        int64 // datagrams sent (logical, pre-fragmentation)
	DgramPackets  int64 // packets those datagrams took (after fragmentation)
	DgramBytes    int64 // encoded payload bytes across all datagrams
	Streams       int64 // streams opened (Dial calls)
	StreamFrames  int64 // stream frames sent
	StreamPackets int64 // packets those frames took (after fragmentation)
	StreamBytes   int64 // encoded payload bytes across all stream frames
	PacketsRead   int64 // packets read back, datagram and stream alike
}

// Backend implements netsim.Wire over kernel sockets: one datagram pair
// per host carries every frame toward that host, datagram or stream.
// Install it via netsim.Params.Wire and Shutdown it when the run ends.
// Every method but Shutdown runs on the kernel goroutine.
type Backend struct {
	codec WireCodec

	// encScratch and pkt are the pooled buffers of the one frame path.
	// encScratch holds one frame's codec output, retained between sends;
	// pkt is the one packet buffer, where a send assembles a packet and
	// every read lands (never both at once). A frame read into pkt is
	// decoded straight from it and copied only if it is parked.
	encScratch []byte
	pkt        []byte

	closed    atomic.Bool
	hosts     map[netsim.HostID]*hostSock
	sent      map[uint64]*hostSock // token → destination pair, until redeemed
	arrived   map[uint64][]byte    // frames read before their receive asked
	partials  map[uint64]*partial  // frames with fragments still unread
	nextToken uint64
	stats     Stats
}

// hostSock is one host's datagram pair.
type hostSock struct {
	host   netsim.HostID
	rfd    int // the end the host reads
	wfd    int // the end every sender writes
	unread backlog
}

// backlog counts what has been written toward a pair and not yet read.
type backlog struct{ n, bytes int }

// full reports whether one more packet of bytes would pass the bounds.
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
		pkt:      make([]byte, maxPacket),
		hosts:    make(map[netsim.HostID]*hostSock),
		sent:     make(map[uint64]*hostSock),
		arrived:  make(map[uint64][]byte),
		partials: make(map[uint64]*partial),
	}
}

// sockErr classifies a failed socket call at stage: a socket closed by
// Shutdown, or plain I/O failure.
func (b *Backend) sockErr(stage string, err error) *errs.Error {
	if b.closed.Load() {
		return errs.New(CodeShutdown, stage, ErrShutdown)
	}
	return errs.New(CodeIO, stage, err)
}

func write(fd int, pkt []byte) (int, error) { return syscall.Write(fd, pkt) }

func read(fd int, pkt []byte) (int, error) { return syscall.Read(fd, pkt) }

// restart makes call (write or read, on fd with the packet buffer pkt), and
// makes it again while a signal interrupts it. A non-blocking call does not
// wait, so there is nothing to bound.
func restart(call func(fd int, pkt []byte) (int, error), fd int, pkt []byte) (int, error) {
	for {
		n, err := call(fd, pkt)
		if err != syscall.EINTR {
			return n, err
		}
	}
}

// AttachHost implements netsim.Wire: it makes the host's datagram pair.
// That fails only for environmental reasons (fd exhaustion, a kernel that
// will not buffer one packet) that make the whole run impossible: panic.
func (b *Backend) AttachHost(h netsim.HostID) {
	if b.closed.Load() {
		panic("netwire: AttachHost after Shutdown")
	}
	if _, err := b.host(h); err != nil {
		panic(err.Error())
	}
}

// host returns the pair for h, making it on first use.
func (b *Backend) host(h netsim.HostID) (*hostSock, error) {
	if s, ok := b.hosts[h]; ok {
		return s, nil
	}
	s, err := bind(h, sockBuffer)
	if err != nil {
		return nil, errs.New(CodeIO, "bind datagram pair", err).AddContext("host", h)
	}
	b.hosts[h] = s
	return s, nil
}

// bind makes host h's pair, an AF_UNIX datagram socketpair, asking for
// buf bytes of buffer on each end. CloseOnExec runs under syscall.ForkLock,
// as package net does where SOCK_CLOEXEC is missing (darwin), so a
// concurrent fork+exec cannot inherit the descriptors.
func bind(h netsim.HostID, buf int) (*hostSock, error) {
	syscall.ForkLock.RLock()
	fd, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err == nil {
		syscall.CloseOnExec(fd[0])
		syscall.CloseOnExec(fd[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return nil, err
	}
	// lint:alloc first-use pair, once per host; steady-state sends hit the cache in host
	s := &hostSock{host: h, rfd: fd[0], wfd: fd[1]}
	err = ready(s.wfd, syscall.SO_SNDBUF, buf)
	if err == nil {
		err = ready(s.rfd, syscall.SO_RCVBUF, buf)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ready makes one end of a pair non-blocking and asks for buf bytes of its
// buffer opt, failing unless the size the kernel grants holds one packet.
func ready(fd, opt, buf int) error {
	err := syscall.SetNonblock(fd, true)
	if err == nil {
		err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, opt, buf)
	}
	if err != nil {
		return err
	}
	got, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, opt)
	if err == nil && got < maxPacket {
		return errs.New(CodeIO, "socket buffer smaller than one packet", nil).AddContext("bytes", got)
	}
	return err
}

// close closes both ends of the pair.
func (s *hostSock) close() {
	syscall.Close(s.rfd)
	syscall.Close(s.wfd)
}

// SendDgram implements netsim.Wire: write the payload toward dst's pair
// and return the token that RecvDgram redeems exactly once at the frame's
// virtual delivery time.
func (b *Backend) SendDgram(src netsim.HostID, srcPort int, dst netsim.HostID, dstPort int, payload any) (uint64, error) {
	tok, n, pkts, err := b.send(dst, payload)
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
// encodes the payload into the pooled scratch buffer and writes it into
// dst's pair, fragmented into maxChunk pieces. It returns the frame's
// token, its encoded length and the packets it took. Steady state this
// path performs no allocations: the codec appends into retained scratch
// and the packet buffer is fixed-size.
func (b *Backend) send(dst netsim.HostID, payload any) (tok uint64, n, nfrags int, err error) {
	data, err := b.codec.AppendEncode(b.encScratch[:0], payload)
	if err != nil {
		return 0, 0, 0, err
	}
	b.encScratch = data[:0] // retain grown capacity for the next frame
	if b.closed.Load() {
		return 0, 0, 0, ErrShutdown
	}
	s, err := b.host(dst)
	if err != nil {
		return 0, 0, 0, err
	}
	b.nextToken++
	tok = b.nextToken
	nfrags = max(1, (len(data)+maxChunk-1)/maxChunk) // zero-byte payloads still travel as one packet
	for i := 0; i < nfrags; i++ {
		frag := data[i*maxChunk : min(len(data), (i+1)*maxChunk)]
		if err := b.writePacket(s, tok, i, nfrags, frag); err != nil {
			return 0, 0, 0, err.AddContext("token", tok)
		}
	}
	b.sent[tok] = s
	return tok, len(data), nfrags, nil
}

// writePacket writes fragment i of frame tok's nfrags into s. It drains s
// first when the packet would pass the backlog bound, and again whenever
// the write finds the pair's buffer full (EAGAIN; ENOBUFS on darwin): what
// fills it is only what s has not read yet. With nothing unread, a full
// pair is a failure.
func (b *Backend) writePacket(s *hostSock, tok uint64, i, nfrags int, frag []byte) *errs.Error {
	full := s.unread.full(len(frag))
	for {
		if full {
			if err := b.drain(s); err != nil {
				return err
			}
		}
		// Assembled after the drain, which reads into the same buffer.
		pkt := b.pkt[:dgramHeaderLen+len(frag)]
		binary.BigEndian.PutUint32(pkt[0:], dgramMagic)
		binary.BigEndian.PutUint64(pkt[4:], tok)
		binary.BigEndian.PutUint16(pkt[12:], uint16(i))
		binary.BigEndian.PutUint16(pkt[14:], uint16(nfrags))
		copy(pkt[dgramHeaderLen:], frag)
		_, err := restart(write, s.wfd, pkt)
		if err == nil {
			s.unread.n++
			s.unread.bytes += len(frag)
			return nil
		}
		if full = err == syscall.EAGAIN || err == syscall.ENOBUFS; !full || s.unread.n == 0 {
			return b.sockErr("send frame", err).AddContext("host", s.host)
		}
	}
}

// recv is the one frame receive path: read the destination pair until the
// frame identified by token is complete, parking the other frames read on
// the way. The returned bytes are valid until the next read or send.
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
// read or send; a reassembled one owns its storage. Every write is queued
// when it returns, so an empty pair means a packet written to it is gone:
// wire.lost, at once.
func (b *Backend) readPacket(s *hostSock) (tok uint64, data []byte, inPkt, done bool, _ *errs.Error) {
	n, err := restart(read, s.rfd, b.pkt)
	switch {
	case err == syscall.EAGAIN:
		return 0, nil, false, false, errs.New(CodeLost, "recv frame", ErrLost).AddContext("host", s.host)
	case err != nil:
		return 0, nil, false, false, b.sockErr("recv frame", err).AddContext("host", s.host)
	}
	b.stats.PacketsRead++
	pkt := b.pkt[:n]
	if n < dgramHeaderLen || binary.BigEndian.Uint32(pkt) != dgramMagic {
		return 0, nil, false, false, malformed(s)
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
	if p == nil && idx < nfrags {
		p = &partial{data: make([]byte, nfrags*maxChunk)} // lint:alloc reassembles a multi-fragment frame
		b.partials[tok] = p
	}
	if p == nil || idx >= nfrags || len(p.data) != nfrags*maxChunk {
		return 0, nil, false, false, malformed(s)
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

// malformed reports a packet on s that does not parse: only the backend
// writes a pair, so there is no stray traffic to skip.
func malformed(s *hostSock) *errs.Error {
	return errs.New(CodeIO, "recv frame: malformed packet", nil).AddContext("host", s.host)
}

// Stats returns a snapshot of the traffic counters.
func (b *Backend) Stats() Stats {
	return b.stats
}

// Shutdown closes both ends of every pair; later operations fail with
// ErrShutdown. It is idempotent and must be called when the run ends,
// after the kernel has stopped calling the backend.
func (b *Backend) Shutdown() {
	if b.closed.Swap(true) {
		return
	}
	for _, s := range b.hosts {
		s.close()
	}
}

var _ netsim.Wire = (*Backend)(nil)
