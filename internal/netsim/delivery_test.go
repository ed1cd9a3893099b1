package netsim

import (
	"fmt"
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

// hopRig is a two-host network with a receiver draining port 1 of host 1.
type hopRig struct {
	k    *sim.Kernel
	n    *Network
	a, b *Iface
	got  int
}

func newHopRig(t testing.TB) *hopRig {
	t.Helper()
	r := &hopRig{k: sim.NewKernel()}
	r.n = New(r.k, Params{})
	r.a, r.b = r.n.Attach(0), r.n.Attach(1)
	q, _ := r.b.BindDgram(1)
	r.k.Spawn("recv", func(p *sim.Proc) {
		for {
			if _, err := q.Get(p); err != nil {
				return
			}
			r.got++
		}
	})
	return r
}

// hop sends one cross-host and one loopback datagram and runs both
// deliveries.
func (r *hopRig) hop(payload any) {
	r.a.SendDgram(7, 1, 1, 200, payload)
	r.b.SendDgram(7, 1, 1, 200, payload)
	r.k.Run()
}

func TestDgramHopZeroAlloc(t *testing.T) {
	r := newHopRig(t)
	payload := &struct{ n int }{}
	r.hop(payload) // warm the pool and the receiver's queue
	if n := testing.AllocsPerRun(200, func() { r.hop(payload) }); n != 0 {
		t.Fatalf("a datagram hop allocates %v per send+delivery, want 0", n)
	}
	if r.got != 2*202 {
		t.Fatalf("delivered %d datagrams, want %d", r.got, 2*202)
	}
	if len(r.n.free) != 2 {
		t.Fatalf("pool holds %d records, want the 2 the hop made", len(r.n.free))
	}
}

// connRig is an established connection whose sender sends one segment per
// token put into send, and whose receiver counts what arrives.
type connRig struct {
	k    *sim.Kernel
	n    *Network
	send *sim.Queue[int]
	got  int
}

func newConnRig(t testing.TB, dst HostID, payload any) *connRig {
	t.Helper()
	r := &connRig{k: sim.NewKernel()}
	r.n = New(r.k, Params{})
	a := r.n.Attach(0)
	r.n.Attach(1)
	l, err := r.n.Iface(dst).Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	r.send = sim.NewQueue[int](r.k)
	r.k.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			if _, err := c.Recv(p); err != nil {
				return
			}
			r.got++
		}
	})
	r.k.Spawn("client", func(p *sim.Proc) {
		c, err := a.Dial(p, dst, 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			size, err := r.send.Get(p)
			if err != nil {
				return
			}
			if err := c.Send(p, size, payload); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	})
	r.k.Run()
	return r
}

func (r *connRig) hop(size int) {
	r.send.TryPut(size)
	r.k.Run()
}

func TestConnSendZeroAlloc(t *testing.T) {
	payload := &struct{ n int }{}
	for _, dst := range []HostID{1, 0} { // cross-host, then loopback
		r := newConnRig(t, dst, payload)
		r.hop(4000) // warm: three frames, one delivery
		if n := testing.AllocsPerRun(200, func() { r.hop(4000) }); n != 0 {
			t.Errorf("dst %d: a segment send+delivery allocates %v, want 0", dst, n)
		}
		if r.got != 202 || len(r.n.free) != 1 {
			t.Errorf("dst %d: delivered %d (want 202), pool holding %d (want 1)",
				dst, r.got, len(r.n.free))
		}
	}
}

// TestDeliveryPoolReturnsEveryRecord sends one datagram or segment down
// each path a delivery can end on and checks that its record is back in the
// pool, whether the contents arrived or not.
func TestDeliveryPoolReturnsEveryRecord(t *testing.T) {
	dgram := func(setup func(n *Network), dst HostID, port int) func(t *testing.T) (*Network, int) {
		return func(t *testing.T) (*Network, int) {
			k := sim.NewKernel()
			n := New(k, Params{})
			a := n.Attach(0)
			n.Attach(1)
			q, _ := n.Iface(1).BindDgram(1)
			if setup != nil {
				setup(n)
			}
			a.SendDgram(7, dst, port, 100, "x")
			k.Run()
			return n, q.Len()
		}
	}
	cases := []struct {
		name      string
		run       func(t *testing.T) (*Network, int)
		delivered int
	}{
		{"delivered", dgram(nil, 1, 1), 1},
		{"host never attached", dgram(nil, 5, 1), 0},
		{"host down", dgram(func(n *Network) { n.SetHostDown(1, true) }, 1, 1), 0},
		{"partitioned", dgram(func(n *Network) { n.Partition(map[HostID]int{1: 1}) }, 1, 1), 0},
		{"lost", dgram(func(n *Network) { n.SetLoss(0.999, 1) }, 1, 1), 0},
		{"closed port", dgram(nil, 1, 2), 0},
		{"peer torn down", func(t *testing.T) (*Network, int) {
			// A segment in flight toward an endpoint that closes before it
			// lands: the delivery TryPuts into a closed inbox.
			k := sim.NewKernel()
			n := New(k, Params{})
			a, b := n.Attach(0), n.Attach(1)
			l, err := b.Listen(9000)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			k.Spawn("server", func(p *sim.Proc) {
				c, err := l.Accept(p)
				if err != nil {
					return
				}
				if err := c.Send(p, 100_000, "late"); err != nil {
					t.Errorf("server send: %v", err)
				}
			})
			k.Spawn("client", func(p *sim.Proc) {
				c, err := a.Dial(p, 1, 9000)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				if err := p.Sleep(10 * time.Millisecond); err != nil { // the server's send is pacing
					return
				}
				c.Close()
				if _, err := c.Recv(p); err == nil {
					got++
				}
			})
			k.Run()
			return n, got
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, delivered := c.run(t)
			if delivered != c.delivered {
				t.Errorf("delivered %d, want %d", delivered, c.delivered)
			}
			if len(n.free) != 1 {
				t.Errorf("pool holds %d records; want the one record back", len(n.free))
			}
		})
	}
}

// TestDeliveryPoolPeakInFlight sends 10,000 datagrams in bursts of random
// size down every path, running the kernel dry between bursts. The pool
// never makes more records than the largest burst (the peak in flight), and
// every record it has held is back each time the kernel runs dry.
func TestDeliveryPoolPeakInFlight(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	ifs := []*Iface{n.Attach(0), n.Attach(1), n.Attach(2)}
	for _, i := range ifs {
		q, _ := i.BindDgram(1)
		k.Spawn(fmt.Sprintf("recv%d", i.Host()), func(p *sim.Proc) {
			for {
				if _, err := q.Get(p); err != nil {
					return
				}
			}
		})
	}
	rng := sim.NewRNG(46)
	sent, peak := 0, 0
	seen := make(map[*delivery]bool) // every record the pool has held
	for sent < 10_000 {
		switch rng.Intn(4) {
		case 0:
			n.SetHostDown(HostID(rng.Intn(3)), rng.Intn(2) == 0)
		case 1:
			if rng.Intn(2) == 0 {
				n.Partition(map[HostID]int{HostID(rng.Intn(3)): 1})
			} else {
				n.Heal()
			}
		case 2:
			n.SetLoss(0.3*float64(rng.Intn(2)), uint64(sent))
		}
		burst := 1 + rng.Intn(16)
		peak = max(peak, burst)
		for range burst {
			src := ifs[rng.Intn(3)]
			dst := HostID(rng.Intn(4)) // host 3 is never attached
			src.SendDgram(7, dst, 1+rng.Intn(2), 1+rng.Intn(3000), sent)
			sent++
		}
		k.Run()
		for _, d := range n.free {
			seen[d] = true
		}
		if missing := len(seen) - len(n.free); missing != 0 {
			t.Fatalf("after %d sends, %d records not returned", sent, missing)
		}
	}
	if len(seen) > peak {
		t.Fatalf("pool made %d records, peak in flight was %d", len(seen), peak)
	}
}

// TestDeliveryReuseAtSameInstant has each delivered datagram wake a
// receiver that sends again at the same virtual instant, reusing the
// record the delivery just returned while a second delivery is still in
// flight. Every message and every echo arrives, each stream in order.
func TestDeliveryReuseAtSameInstant(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	inq, _ := b.BindDgram(1)
	echoq, _ := a.BindDgram(2)
	var got, echoes []any
	k.Spawn("echo", func(p *sim.Proc) {
		for {
			d, err := inq.Get(p)
			if err != nil {
				return
			}
			got = append(got, d.Payload)
			b.SendDgram(1, 0, 2, 10, d.Payload) // same instant as the delivery
			b.SendDgram(1, 1, 3, 10, d.Payload) // loopback to a closed port
		}
	})
	k.Spawn("collect", func(p *sim.Proc) {
		for {
			d, err := echoq.Get(p)
			if err != nil {
				return
			}
			echoes = append(echoes, d.Payload)
		}
	})
	for i := range 3 {
		a.SendDgram(2, 1, 1, 500, i)
	}
	k.Run()
	want := []any{0, 1, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(echoes) != fmt.Sprint(want) {
		t.Fatalf("received %v and echoes %v, want %v for both", got, echoes, want)
	}
	// Four records were ever in flight at once; all are back.
	if len(n.free) != 4 {
		t.Fatalf("pool holds %d records, want all 4 back", len(n.free))
	}
}

func BenchmarkDgramHop(b *testing.B) {
	r := newHopRig(b)
	payload := &struct{ n int }{}
	r.hop(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.hop(payload)
	}
}

func BenchmarkConnSend(b *testing.B) {
	r := newConnRig(b, 1, &struct{ n int }{})
	r.hop(4000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.hop(4000)
	}
}
