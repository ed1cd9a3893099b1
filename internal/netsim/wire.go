package netsim

// Wire is the pluggable real-transport backend behind Iface. When
// Params.Wire is non-nil, every cross-host frame additionally rides a real
// OS-level transport (internal/netwire carries datagrams and stream
// segments alike into the destination host's one AF_UNIX datagram pair):
// the payload is marshalled, written to a kernel socket, read back, and
// unmarshalled, and the *decoded* copy is what the receiver sees. Timing is untouched — the
// netsim link model still books every frame's wire time and the sim kernel
// remains the only clock (it pauses via sim.Kernel.AwaitExternal until the
// wire I/O completes) — so a wire-backed run is virtual-time-identical to
// an in-memory run while exercising real marshal → syscall → unmarshal on
// every cross-host payload.
//
// Same-host traffic never touches the backend: loopback delivery is a
// memory copy in both the model and reality, and local control messages
// legitimately carry non-serializable state (kernel-context reply
// closures).
//
// The contract between netsim and a backend:
//
//   - Every method is called on the kernel goroutine, one at a time; a
//     backend needs no goroutine or lock of its own.
//   - SendDgram is called at virtual send time and returns a token;
//     RecvDgram(token) is called inside AwaitExternal at virtual delivery
//     time and reads the destination socket on the calling goroutine until
//     that datagram has crossed it. Every token is eventually redeemed
//     exactly once — even when the simulated delivery is then dropped
//     (host down, partition, closed port), so the backend never leaks
//     in-flight frames.
//   - Listen/CloseListen bracket a simulated TCP listener's lifetime; Dial
//     returns the two backend endpoints paired with the simulated Conn
//     endpoints. TCP's ordering, pacing and close semantics are netsim's
//     to model, not the backend's. WireConn.Send is called after the
//     sender's pacing completes with a per-direction sequence number;
//     WireConn.Recv(seq) — on the *peer's* endpoint, inside AwaitExternal —
//     reads the peer host's socket on the calling goroutine until frame seq
//     has crossed it. Every sent seq is redeemed exactly once, as a token
//     is. Close (idempotent) tears the endpoint down; netsim calls it only
//     for a Dial whose listener refused the connection. A closed Conn's
//     endpoints are simply dropped: each frame's delivery redeems its seq
//     whether or not the Conn has closed by then, and a teardown event
//     would be one the in-memory run never schedules.
//
// A marshal failure is a bug in a payload type, not a runtime condition:
// netsim panics on it loudly. Surfacing exactly those bugs is the reason
// the backend exists.
type Wire interface {
	// AttachHost readies the backend for traffic to and from host h
	// (netwire makes the host's datagram pair here).
	AttachHost(h HostID)
	// SendDgram ships one datagram payload and returns the token that
	// redeems it. The error is a marshal failure (netsim panics on it).
	SendDgram(src HostID, srcPort int, dst HostID, dstPort int, payload any) (token uint64, err error)
	// RecvDgram reads the wire on the calling goroutine until the datagram
	// identified by token has crossed it and returns the decoded payload.
	// Called inside AwaitExternal.
	RecvDgram(token uint64) (any, error)
	// Listen readies the backend for streams to a simulated Listen's
	// (host, port).
	Listen(h HostID, port int) error
	// CloseListen ends what Listen readied. Idempotent.
	CloseListen(h HostID, port int)
	// Dial opens a stream from src to (dst, port) and returns its two
	// paired endpoints.
	Dial(src, dst HostID, port int) (client, server WireConn, err error)
}

// WireConn is one endpoint of a backend stream paired with a netsim Conn.
type WireConn interface {
	// Send marshals payload and writes it as frame seq. The error is a
	// marshal failure or a torn-down stream.
	Send(seq uint64, payload any) error
	// Recv reads this endpoint's host socket on the calling goroutine
	// until frame seq (sent by the peer endpoint) has crossed it and
	// returns the decoded payload; it errors when this endpoint was torn
	// down first, or seq was never sent. Called inside AwaitExternal.
	Recv(seq uint64) (any, error)
	// Close tears down this endpoint. Idempotent.
	Close()
}
