package netsim

import "fmt"

// delivery is one datagram or TCP segment in flight: the record SendDgram
// and Conn.Send schedule at the arrival instant instead of a closure. The
// records are pooled per Network, and deliver returns its record to the
// pool on every path (delivered, or dropped for any reason), so once the
// pool holds the peak number in flight a hop allocates nothing. fire, send
// and recv are bound once, when the record is made: scheduling a delivery
// or bridging a wire call through it allocates no closure either.
type delivery struct {
	net   *Network
	dgram Datagram // a datagram's contents (peer == nil)
	seg   Segment  // a segment's contents (peer != nil)
	peer  *Conn    // the endpoint a segment is for; nil for a datagram
	wired bool     // a wire backend carries the frame; tok redeems it
	tok   uint64   // the wire token (datagram) or sequence number (segment)
	lost  bool     // the stream was torn down before the segment was redeemed
	err   error    // a segment's failed wire send
	fire  func()   // deliver, bound once
	send  func()   // sendWire, bound once (wire backends only)
	recv  func()   // recvWire, bound once (wire backends only)
}

// acquire takes a cleared record from the pool, making one on a miss.
func (n *Network) acquire() *delivery {
	if last := len(n.free) - 1; last >= 0 {
		d := n.free[last]
		n.free = n.free[:last]
		return d
	}
	d := &delivery{net: n} // lint:alloc pool miss: one record per concurrent delivery, kept for the Network's lifetime
	d.fire = d.deliver
	if n.wire != nil {
		d.send, d.recv = d.sendWire, d.recvWire
	}
	n.made++
	return d
}

// release clears d, so the pool pins no payload, and returns it.
func (n *Network) release(d *delivery) {
	*d = delivery{net: n, fire: d.fire, send: d.send, recv: d.recv}
	n.free = append(n.free, d)
}

// deliver runs at the arrival instant. It redeems a wired frame first (the
// backend's socket must stay drained even when the model then drops the
// delivery), then returns the record to the pool before handing the
// contents on: whatever the receiver does next may reuse it.
func (d *delivery) deliver() {
	n := d.net
	if d.wired {
		n.k.AwaitExternal(d.recv)
	}
	if peer := d.peer; peer != nil {
		seg, lost := d.seg, d.lost
		n.release(d)
		if !lost {
			peer.inbox.TryPut(seg) // no-op if the peer already tore down
		}
		return
	}
	dg := d.dgram
	n.release(d)
	n.deliverDgram(dg)
}

// deliverDgram puts a datagram that reached its destination host into the
// bound port's queue, unless the model drops it.
func (n *Network) deliverDgram(dg Datagram) {
	di := n.ifaces[dg.Dst]
	if di == nil {
		return // host never attached: drop
	}
	if n.dropDgram(dg.Src, dg.Dst) {
		return // host down, partitioned away, or random loss
	}
	if q, ok := di.dgrams[dg.DstPort]; ok {
		q.TryPut(dg)
	}
	// No queue bound: drop, like UDP to a closed port.
}

// sendWire writes the frame to the wire backend, inside AwaitExternal at
// virtual send time.
func (d *delivery) sendWire() {
	if d.peer != nil {
		d.err = d.peer.peer.wire.Send(d.tok, d.seg.Payload)
		return
	}
	g := &d.dgram
	tok, err := d.net.wire.SendDgram(g.Src, g.SrcPort, g.Dst, g.DstPort, g.Payload)
	if err != nil {
		// A payload the codec cannot marshal is a protocol bug, exactly
		// what the wire backend exists to surface.
		panic(fmt.Sprintf("netsim: wire send of %T failed: %v", g.Payload, err))
	}
	d.tok = tok
}

// recvWire redeems the frame, inside AwaitExternal at virtual delivery
// time, and replaces the payload with the decoded copy.
func (d *delivery) recvWire() {
	if d.peer != nil {
		v, err := d.peer.wire.Recv(d.tok)
		if err != nil {
			d.lost = true // stream torn down first: the segment dies with it
			return
		}
		d.seg.Payload = v
		return
	}
	v, err := d.net.wire.RecvDgram(d.tok)
	if err != nil {
		panic(fmt.Sprintf("netsim: wire datagram %d lost: %v", d.tok, err))
	}
	d.dgram.Payload = v
}
