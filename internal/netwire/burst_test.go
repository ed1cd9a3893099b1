package netwire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// burstPayload is payload i of a burst: distinct bytes, so a frame
// delivered for the wrong token or sequence number shows up.
func burstPayload(i int) []byte {
	p := make([]byte, 64)
	for j := range p {
		p[j] = byte(i*7 + j)
	}
	binary.BigEndian.PutUint32(p, uint32(i))
	return p
}

// watchedWire records the highest unread backlog a datagram send leaves on
// its destination socket.
type watchedWire struct {
	*Backend
	high int
}

func (w *watchedWire) SendDgram(src netsim.HostID, srcPort int, dst netsim.HostID, dstPort int, payload any) (uint64, error) {
	tok, err := w.Backend.SendDgram(src, srcPort, dst, dstPort, payload)
	w.high = max(w.high, w.hosts[dst].unread.n)
	return tok, err
}

// The kernel goroutine is every socket's only reader, so a burst written
// before its first delivery piles up unread. Four times the backlog bound
// of datagrams to one host in one virtual instant, and as many stream
// frames before the first Recv, must all arrive intact and in order, with
// the destination host's socket never holding more than backlogBound
// unread: the send side drains it once the bound is reached.
func TestWireBurstBeyondBacklogBound(t *testing.T) {
	const n = 4 * backlogBound
	start := time.Now()

	t.Run("datagrams", func(t *testing.T) {
		k := sim.NewKernel()
		defer k.Close()
		w := &watchedWire{Backend: New()}
		defer w.Shutdown()
		net := netsim.New(k, netsim.Params{Wire: w})
		net.Attach(0)
		net.Attach(1)
		q, _ := net.Iface(1).BindDgram(700)
		var got [][]byte
		k.Spawn("sink", func(p *sim.Proc) {
			for len(got) < n {
				d, err := q.Get(p)
				if err != nil {
					return
				}
				b, _ := d.Payload.([]byte)
				got = append(got, b)
			}
		})
		k.Schedule(0, func() {
			for i := 0; i < n; i++ {
				net.Iface(0).SendDgram(701, 1, 700, 64, burstPayload(i))
			}
		})
		k.Run()

		if len(got) != n {
			t.Fatalf("received %d of %d datagrams", len(got), n)
		}
		for i, b := range got {
			if !bytes.Equal(b, burstPayload(i)) {
				t.Fatalf("datagram %d = %x, want %x", i, b, burstPayload(i))
			}
		}
		if w.high != backlogBound {
			t.Errorf("unread high-water %d datagrams, want exactly the bound %d", w.high, backlogBound)
		}
	})

	t.Run("stream", func(t *testing.T) {
		b := New()
		defer b.Shutdown()
		if err := b.Listen(1, 9000); err != nil {
			t.Fatalf("listen: %v", err)
		}
		c, s, err := b.Dial(0, 1, 9000)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		high := 0
		for i := 0; i < n; i++ {
			if err := c.Send(uint64(i), burstPayload(i)); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			high = max(high, b.hosts[1].unread.n)
		}
		for i := 0; i < n; i++ {
			v, err := s.Recv(uint64(i))
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if got, _ := v.([]byte); !bytes.Equal(got, burstPayload(i)) {
				t.Fatalf("frame %d = %x, want %x", i, got, burstPayload(i))
			}
		}
		if high != backlogBound {
			t.Errorf("unread high-water %d frames, want exactly the bound %d", high, backlogBound)
		}
	})

	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("bursts took %v, want well under 5s", d)
	}
}
