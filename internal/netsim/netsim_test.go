package netsim

import (
	"math"
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

func TestBulkTransferTimeMatchesRawTCPColumn(t *testing.T) {
	// Paper Table 2, raw TCP: 0.3 MB in 0.27 s ... 10.4 MB in 10.0 s
	// (slaves carry half the listed training-set size).
	cases := []struct {
		bytes int
		want  float64 // seconds
		tol   float64
	}{
		{300_000, 0.27, 0.05},
		{2_100_000, 1.82, 0.25},
		{2_900_000, 2.51, 0.35},
		{4_900_000, 4.42, 0.45},
		{6_750_000, 6.17, 0.55},
		{10_400_000, 10.00, 0.65},
	}
	for _, c := range cases {
		k := sim.NewKernel()
		n := New(k, Params{})
		a, b := n.Attach(0), n.Attach(1)
		l, err := b.Listen(5000)
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		k.Spawn("recv", func(p *sim.Proc) {
			c2, err := l.Accept(p)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			if _, err := c2.Recv(p); err != nil {
				t.Errorf("recv: %v", err)
			}
			done = p.Now()
		})
		k.Spawn("send", func(p *sim.Proc) {
			conn, err := a.Dial(p, 1, 5000)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if err := conn.Send(p, c.bytes, nil); err != nil {
				t.Errorf("send: %v", err)
			}
		})
		if blocked := k.Run(); blocked != 0 {
			t.Fatalf("deadlock: %v", k.Blocked())
		}
		got := sim.Seconds(done)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("transfer %d B took %.3f s, paper raw TCP %.2f s (tol %.2f)",
				c.bytes, got, c.want, c.tol)
		}
	}
}

func TestLinkFIFOAndSharing(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	link := n.Link()
	// Two competing senders each pushing 100 frames of MSS: total wire time
	// must be the sum (no overlap on a shared medium), and both finish at
	// about the same time (fair interleaving).
	var endA, endB sim.Time
	frame := MSS
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			link.Transmit(p, frame)
		}
		endA = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			link.Transmit(p, frame)
		}
		endB = p.Now()
	})
	k.Run()
	perFrame := link.frameTime(frame)
	wantTotal := 200 * perFrame
	if endA > endB {
		endA, endB = endB, endA
	}
	if endB != wantTotal {
		t.Fatalf("last finisher at %v, want %v", endB, wantTotal)
	}
	// Fair interleave: first finisher within one frame of the last.
	if endB-endA > 2*perFrame {
		t.Fatalf("unfair sharing: %v vs %v", endA, endB)
	}
}

func TestDatagramDelivery(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	q, _ := b.BindDgram(7)
	var got Datagram
	var at sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		d, err := q.Get(p)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		got, at = d, p.Now()
	})
	k.Spawn("send", func(p *sim.Proc) {
		a.SendDgram(9, 1, 7, 1000, "hello")
	})
	if blocked := k.Run(); blocked != 0 {
		t.Fatalf("deadlock: %v", k.Blocked())
	}
	if got.Payload != "hello" || got.Src != 0 || got.SrcPort != 9 {
		t.Fatalf("datagram = %+v", got)
	}
	if at <= 0 || at > 10*time.Millisecond {
		t.Fatalf("arrival at %v", at)
	}
}

func TestDatagramSameHostLoopback(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	q, _ := a.BindDgram(7)
	var at sim.Time
	k.Spawn("recv", func(p *sim.Proc) {
		if _, err := q.Get(p); err == nil {
			at = p.Now()
		}
	})
	a.SendDgram(8, 0, 7, 1_000_000, nil)
	k.Run()
	// 1 MB over loopback at 25 MB/s = 40 ms; must not pay Ethernet time
	// (~0.96 s) and must not be free.
	if at < 30*time.Millisecond || at > 60*time.Millisecond {
		t.Fatalf("loopback arrival at %v", at)
	}
	if n.Link().busyUntil != 0 {
		t.Fatal("loopback datagram used the wire")
	}
}

func TestDatagramToUnboundPortDropped(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	n.Attach(1)
	a.SendDgram(1, 1, 99, 100, nil) // nothing bound on 1:99
	if blocked := k.Run(); blocked != 0 {
		t.Fatalf("blocked procs after drop: %d", blocked)
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	n.Attach(1)
	var err error
	k.Spawn("dial", func(p *sim.Proc) {
		_, err = a.Dial(p, 1, 4242)
	})
	k.Run()
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestListenPortInUse(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	if _, err := a.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Listen(80); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestConnMessageBoundariesAndOrder(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	l, _ := b.Listen(1)
	var got []int
	k.Spawn("srv", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < 5; i++ {
			seg, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, seg.Payload.(int))
		}
	})
	k.Spawn("cli", func(p *sim.Proc) {
		c, err := a.Dial(p, 1, 1)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			c.Send(p, 100+i, i)
		}
	})
	if blocked := k.Run(); blocked != 0 {
		t.Fatalf("deadlock: %v", k.Blocked())
	}
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestConnClose(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	l, _ := b.Listen(1)
	var recvErr error
	k.Spawn("srv", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		_, recvErr = c.Recv(p)
	})
	k.Spawn("cli", func(p *sim.Proc) {
		c, err := a.Dial(p, 1, 1)
		if err != nil {
			return
		}
		p.Sleep(time.Second)
		c.Close()
	})
	if blocked := k.Run(); blocked != 0 {
		t.Fatalf("recv did not unblock on close: %v", k.Blocked())
	}
	if recvErr != ErrConnClosed {
		t.Fatalf("recvErr = %v", recvErr)
	}
}

// TestBulkSendResumesInPlace: a bulk Send paces itself one frame at a time,
// and on an idle link each frame's wake is the next event, so the sender
// runs all 719 frames of a MiB without a coroutine switch — the first
// dispatch is the only one.
func TestBulkSendResumesInPlace(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	if _, err := b.Listen(5000); err != nil {
		t.Fatal(err)
	}
	var took sim.Time
	var switches uint64
	k.Spawn("send", func(p *sim.Proc) {
		conn, err := a.Dial(p, 1, 5000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		t0, s0 := p.Now(), k.ProcSwitches()
		if err := conn.Send(p, 1<<20, nil); err != nil {
			t.Errorf("send: %v", err)
		}
		took, switches = p.Now()-t0, k.ProcSwitches()-s0
	})
	k.Run()
	// 719 frames back to back: 718 full MSS frames and a 296-byte tail.
	l := n.Link()
	if want := 718*l.frameTime(MSS) + l.frameTime(1<<20-718*MSS); took != want || switches != 0 || k.ProcSwitches() != 1 {
		t.Fatalf("1 MiB send: took %v, %d switches during it, %d in the run; want %v (719 frames), 0, 1", took, switches, k.ProcSwitches(), want)
	}
}
