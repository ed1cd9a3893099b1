// Package netwire is the real-socket transport backend behind
// netsim.Wire: every cross-host frame the simulated network delivers also
// rides a loopback UDP datagram (datagram ports) or a real TCP connection
// (streams), round-tripping through marshal → syscall → unmarshal before
// the receiver sees it.
//
// The deterministic kernel stays the only clock. netsim computes every
// arrival time from its cost model exactly as in the in-memory backend;
// netwire substitutes *payload bytes only*, never timing. At a frame's
// virtual send time the payload is encoded and written to a socket; at its
// virtual delivery time the kernel calls sim.Kernel.AwaitExternal, which
// freezes virtual time while the matching bytes are read back and decoded.
// Wall-clock latency of the socket round trip is therefore invisible to
// the simulation — fingerprints stay seed-deterministic while payloads
// prove they survive a real wire.
//
// Everything built on internal/sim is single-threaded by construction, and
// the pvmlint rawgoroutine analyzer forbids host concurrency above the
// kernel. This package is the third sanctioned exception (after the
// kernel's own coroutine trampoline in internal/sim and the independent-
// run fan-out in internal/sweep): socket reads must happen on host
// goroutines because the kernel goroutine is the one blocked inside
// AwaitExternal waiting for them. The bridge goroutines touch no simulation
// state — they move opaque []byte blobs into mutex-guarded maps keyed by
// token (datagrams) or sequence number (stream frames), and the kernel
// goroutine does all encoding and decoding itself. netwire is allowlisted
// in internal/lint.Config.ConcurrencyAllow and (for its socket deadlines,
// which bound AwaitExternal against a lost datagram) WallClockAllow.
package netwire

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"pvmigrate/internal/netsim"
)

// wireTimeout bounds every blocking socket operation. The simulation is
// correct only if every frame written is eventually read back, so a wait
// this long means bytes were truly lost (or a bug desynchronized send and
// receive bookkeeping); the bounded wait turns that hang into an error the
// caller can surface. Loopback sockets make 30s effectively infinite.
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

// ErrShutdown is returned by operations on a Backend after Shutdown.
var ErrShutdown = errors.New("netwire: backend shut down")

// ErrTimeout is wrapped into errors from waits that exceeded wireTimeout.
var ErrTimeout = errors.New("netwire: wire timeout")

// awaitWire receives one value from a bridge goroutine's hand-off channel,
// giving up after wireTimeout. ok is false when the channel was closed
// (teardown). The timer is stopped on the way out: go.mod pins go 1.22
// timer semantics, under which an un-stopped timer stays live in the
// runtime heap until it fires, so a wait that completes normally must not
// leave its 30 s timer behind.
func awaitWire[T any](ch <-chan T) (v T, ok, timedOut bool) {
	t := time.NewTimer(wireTimeout)
	defer t.Stop()
	select {
	case v, ok = <-ch:
		return v, ok, false
	case <-t.C:
		return v, false, true
	}
}

// Stats counts real traffic carried for the simulation. All fields are
// cumulative since New.
type Stats struct {
	Dgrams       int64 // datagrams sent (logical, pre-fragmentation)
	DgramPackets int64 // UDP packets written (after fragmentation)
	DgramBytes   int64 // encoded payload bytes across all datagrams
	Streams      int64 // TCP connections dialed
	StreamFrames int64 // stream frames sent
	StreamBytes  int64 // encoded payload bytes across all stream frames
}

// Backend implements netsim.Wire over loopback sockets: one UDP socket per
// attached host for datagrams, one real TCP connection per simulated
// stream. Install it via netsim.Params.Wire and Shutdown it when the run
// ends. Methods are called from the kernel goroutine (netsim is
// single-threaded); the internal mutex exists to coordinate with the
// socket reader goroutines, not with other callers.
type Backend struct {
	codec WireCodec

	// encScratch and pkt are the pooled encode buffers for the send hot
	// path. Send methods (SendDgram, stream.Send) run on the kernel
	// goroutine only — netsim is single-threaded — so these need no lock:
	// the bridge goroutines never touch them. encScratch holds one frame's
	// codec output and is retained between sends, so a steady-state encode
	// costs zero allocations; pkt is the fixed-size datagram assembly
	// buffer (header + one fragment).
	encScratch []byte
	pkt        []byte

	mu        sync.Mutex
	closed    bool
	hosts     map[netsim.HostID]*hostSock
	listeners map[hostPort]*wireListener
	arrived   map[uint64][]byte      // datagrams read before RecvDgram asked
	waiters   map[uint64]chan []byte // RecvDgram blocked on arrival
	dials     map[uint64]chan net.Conn
	streams   map[uint64]*stream
	nextToken uint64
	nextNonce uint64
	nextSID   uint64
	stats     Stats
}

type hostSock struct {
	udp  *net.UDPConn
	addr netip.AddrPort // WriteToUDPAddrPort avoids the per-write sockaddr allocation
}

type hostPort struct {
	host netsim.HostID
	port int
}

type wireListener struct {
	ln net.Listener
}

// New builds a Backend using the default BinaryCodec (internal/wirefmt).
func New() *Backend {
	return NewWithCodec(BinaryCodec{})
}

// NewWithCodec builds a Backend with a custom payload codec (anything
// implementing WireCodec, e.g. a decorator timing BinaryCodec).
func NewWithCodec(c WireCodec) *Backend {
	return &Backend{
		codec:     c,
		pkt:       make([]byte, dgramHeaderLen+maxChunk),
		hosts:     make(map[netsim.HostID]*hostSock),
		listeners: make(map[hostPort]*wireListener),
		arrived:   make(map[uint64][]byte),
		waiters:   make(map[uint64]chan []byte),
		dials:     make(map[uint64]chan net.Conn),
		streams:   make(map[uint64]*stream),
	}
}

// AttachHost implements netsim.Wire: it binds the host's loopback UDP
// socket and starts its reader. Binding can only fail for environmental
// reasons (no loopback interface, fd exhaustion) that make the whole run
// impossible, so failure panics rather than limping on.
func (b *Backend) AttachHost(h netsim.HostID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		panic("netwire: AttachHost after Shutdown")
	}
	if _, err := b.hostLocked(h); err != nil {
		panic(fmt.Sprintf("netwire: cannot bind UDP socket for host %d: %v", h, err))
	}
}

// hostLocked returns the UDP socket for h, binding it on first use.
// Callers hold b.mu.
func (b *Backend) hostLocked(h netsim.HostID) (*hostSock, error) {
	if s, ok := b.hosts[h]; ok {
		return s, nil
	}
	// lint:alloc first-use socket bind, once per host; steady-state sends hit the cache above
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		return nil, err
	}
	// Bursts accumulate between a frame's virtual send and delivery; a
	// large kernel buffer plus the always-draining reader goroutine keeps
	// loopback loss out of the picture.
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	// lint:alloc first-use socket bind, once per host; steady-state sends hit the cache above
	s := &hostSock{udp: conn, addr: conn.LocalAddr().(*net.UDPAddr).AddrPort()}
	b.hosts[h] = s
	go b.readDgrams(s) // lint:alloc one reader goroutine per host socket, spawned at first-use bind only
	return s, nil
}

// SendDgram implements netsim.Wire: encode the payload now (at the frame's
// virtual send time) into the pooled scratch buffer and write it toward
// dst's UDP socket, fragmented into maxChunk pieces assembled in the
// pooled packet buffer. The returned token is redeemed exactly once by
// RecvDgram at the frame's virtual delivery time. Steady state this path
// performs no allocations: the codec appends into retained scratch, the
// packet buffer is fixed-size, and the AddrPort write needs no sockaddr
// conversion.
func (b *Backend) SendDgram(src netsim.HostID, srcPort int, dst netsim.HostID, dstPort int, payload any) (uint64, error) {
	data, err := b.codec.AppendEncode(b.encScratch[:0], payload)
	if err != nil {
		return 0, err
	}
	b.encScratch = data[:0] // retain grown capacity for the next frame
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrShutdown
	}
	srcSock, err := b.hostLocked(src)
	if err != nil {
		b.mu.Unlock()
		return 0, err
	}
	dstSock, err := b.hostLocked(dst)
	if err != nil {
		b.mu.Unlock()
		return 0, err
	}
	b.nextToken++
	tok := b.nextToken
	b.mu.Unlock()

	nfrags := (len(data) + maxChunk - 1) / maxChunk
	if nfrags == 0 {
		nfrags = 1 // zero-byte payloads still travel as one packet
	}
	pkt := b.pkt
	binary.BigEndian.PutUint32(pkt[0:], dgramMagic)
	binary.BigEndian.PutUint64(pkt[4:], tok)
	binary.BigEndian.PutUint16(pkt[14:], uint16(nfrags))
	for i := 0; i < nfrags; i++ {
		lo := i * maxChunk
		hi := lo + maxChunk
		if hi > len(data) {
			hi = len(data)
		}
		binary.BigEndian.PutUint16(pkt[12:], uint16(i))
		n := copy(pkt[dgramHeaderLen:], data[lo:hi])
		if _, err := srcSock.udp.WriteToUDPAddrPort(pkt[:dgramHeaderLen+n], dstSock.addr); err != nil {
			return 0, fmt.Errorf("netwire: dgram %d->%d: %w", src, dst, err) // lint:alloc error path, after the write already failed
		}
	}

	b.mu.Lock()
	b.stats.Dgrams++
	b.stats.DgramPackets += int64(nfrags)
	b.stats.DgramBytes += int64(len(data))
	b.mu.Unlock()
	return tok, nil
}

// RecvDgram implements netsim.Wire: block (inside AwaitExternal — virtual
// time is frozen) until the datagram identified by token has been read off
// the destination socket, then decode and return it.
func (b *Backend) RecvDgram(token uint64) (any, error) {
	b.mu.Lock()
	if data, ok := b.arrived[token]; ok {
		delete(b.arrived, token)
		b.mu.Unlock()
		return b.codec.Decode(data)
	}
	if b.closed {
		b.mu.Unlock()
		return nil, ErrShutdown
	}
	ch := make(chan []byte, 1)
	b.waiters[token] = ch
	b.mu.Unlock()

	data, ok, timedOut := awaitWire(ch)
	if timedOut {
		b.mu.Lock()
		delete(b.waiters, token)
		b.mu.Unlock()
		return nil, fmt.Errorf("netwire: datagram token %d never arrived: %w", token, ErrTimeout)
	}
	if !ok {
		return nil, ErrShutdown
	}
	return b.codec.Decode(data)
}

// readDgrams is the per-host bridge goroutine: it drains the UDP socket,
// reassembles fragments, and hands complete datagrams to deliverDgram. It
// exits when Shutdown closes the socket. Partial-fragment state is local
// to this goroutine (fragments of one token all arrive on one socket).
func (b *Backend) readDgrams(s *hostSock) {
	type partial struct {
		frags [][]byte
		got   int
	}
	partials := make(map[uint64]*partial)
	buf := make([]byte, dgramHeaderLen+maxChunk+512)
	for {
		n, err := s.udp.Read(buf)
		if err != nil {
			return
		}
		if n < dgramHeaderLen || binary.BigEndian.Uint32(buf) != dgramMagic {
			continue
		}
		tok := binary.BigEndian.Uint64(buf[4:])
		idx := int(binary.BigEndian.Uint16(buf[12:]))
		nfrags := int(binary.BigEndian.Uint16(buf[14:]))
		frag := append([]byte(nil), buf[dgramHeaderLen:n]...)
		if nfrags <= 1 {
			b.deliverDgram(tok, frag)
			continue
		}
		p := partials[tok]
		if p == nil {
			p = &partial{frags: make([][]byte, nfrags)}
			partials[tok] = p
		}
		if idx < len(p.frags) && p.frags[idx] == nil {
			p.frags[idx] = frag
			p.got++
		}
		if p.got == len(p.frags) {
			delete(partials, tok)
			var whole []byte
			for _, f := range p.frags {
				whole = append(whole, f...)
			}
			b.deliverDgram(tok, whole)
		}
	}
}

// deliverDgram hands a reassembled datagram to its waiter, or parks it for
// the RecvDgram that has not asked yet.
func (b *Backend) deliverDgram(token uint64, data []byte) {
	b.mu.Lock()
	if ch, ok := b.waiters[token]; ok {
		delete(b.waiters, token)
		b.mu.Unlock()
		ch <- data // cap 1; exactly one delivery per token
		return
	}
	b.arrived[token] = data
	b.mu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Shutdown closes every socket and wakes every waiter with an error. It is
// idempotent and must be called when the run ends; reader goroutines exit
// as their sockets close.
func (b *Backend) Shutdown() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	socks := make([]*hostSock, 0, len(b.hosts))
	for _, h := range sortedKeys(b.hosts) {
		socks = append(socks, b.hosts[h])
	}
	lns := make([]*wireListener, 0, len(b.listeners))
	for _, hp := range sortedHostPorts(b.listeners) {
		lns = append(lns, b.listeners[hp])
	}
	waiterChans := make([]chan []byte, 0, len(b.waiters))
	for _, tok := range sortedKeys(b.waiters) {
		waiterChans = append(waiterChans, b.waiters[tok])
	}
	b.waiters = make(map[uint64]chan []byte)
	dialChans := make([]chan net.Conn, 0, len(b.dials))
	for _, nonce := range sortedKeys(b.dials) {
		dialChans = append(dialChans, b.dials[nonce])
	}
	b.dials = make(map[uint64]chan net.Conn)
	strs := make([]*stream, 0, len(b.streams))
	for _, id := range sortedKeys(b.streams) {
		strs = append(strs, b.streams[id])
	}
	b.streams = make(map[uint64]*stream)
	b.mu.Unlock()

	for _, s := range socks {
		s.udp.Close()
	}
	for _, wl := range lns {
		wl.ln.Close()
	}
	for _, ch := range waiterChans {
		close(ch)
	}
	for _, ch := range dialChans {
		close(ch)
	}
	for _, s := range strs {
		s.Close()
	}
}

// sortedKeys returns a map's keys in ascending order: teardown fan-out is
// order-insensitive in effect, but deterministic iteration keeps the
// maporder invariant trivially true for the whole package.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortedHostPorts[V any](m map[hostPort]V) []hostPort {
	keys := make([]hostPort, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b hostPort) int {
		if a.host != b.host {
			return int(a.host) - int(b.host)
		}
		return a.port - b.port
	})
	return keys
}

var _ netsim.Wire = (*Backend)(nil)
