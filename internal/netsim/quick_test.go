package netsim

import (
	"testing"
	"testing/quick"

	"pvmigrate/internal/sim"
)

// Property: payload bytes are conserved end to end over TCP for arbitrary
// message-size sequences, and the link never carries fewer payload bytes
// than the messages it transported.
func TestPropTCPByteConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		k := sim.NewKernel()
		n := New(k, Params{})
		a, b := n.Attach(0), n.Attach(1)
		l, err := b.Listen(1)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range sizes {
			total += int(s)
		}
		received := 0
		k.Spawn("sink", func(p *sim.Proc) {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			for i := 0; i < len(sizes); i++ {
				seg, err := c.Recv(p)
				if err != nil {
					return
				}
				received += seg.Bytes
			}
		})
		k.Spawn("src", func(p *sim.Proc) {
			c, err := a.Dial(p, 1, 1)
			if err != nil {
				return
			}
			for _, s := range sizes {
				if c.Send(p, int(s), nil) != nil {
					return
				}
			}
		})
		if blocked := k.Run(); blocked != 0 {
			return false
		}
		if received != total {
			return false
		}
		// Wire accounting: the link was busy for at least the payload's
		// wire time (frames add their overhead, the handshake its 3×40 B).
		return n.Link().busyUntil >= sim.FromSeconds(float64(total)*8/bandwidthBps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: datagram fragmentation preserves FIFO per sender for arbitrary
// size sequences (including the loopback path).
func TestPropDgramFIFO(t *testing.T) {
	f := func(sizes []uint16, sameHost bool) bool {
		if len(sizes) == 0 || len(sizes) > 15 {
			return true
		}
		k := sim.NewKernel()
		n := New(k, Params{})
		a := n.Attach(0)
		dstHost := HostID(1)
		if sameHost {
			dstHost = 0
		}
		dst := n.Attach(dstHost)
		q, _ := dst.BindDgram(9)
		var got []int
		k.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < len(sizes); i++ {
				d, err := q.Get(p)
				if err != nil {
					return
				}
				got = append(got, d.Payload.(int))
			}
		})
		for i, s := range sizes {
			a.SendDgram(5, dstHost, 9, int(s), i)
		}
		if blocked := k.Run(); blocked != 0 {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return len(got) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
