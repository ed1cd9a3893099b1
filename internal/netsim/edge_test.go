package netsim

import (
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

func TestLoopbackTCPConn(t *testing.T) {
	// Same-host connections bypass the wire and pay memcpy time.
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	l, err := a.Listen(5)
	if err != nil {
		t.Fatal(err)
	}
	var gotAt sim.Time
	k.Spawn("srv", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		if _, err := c.Recv(p); err == nil {
			gotAt = p.Now()
		}
	})
	var sentAt sim.Time
	k.Spawn("cli", func(p *sim.Proc) {
		c, err := a.Dial(p, 0, 5)
		if err != nil {
			t.Errorf("loopback dial: %v", err)
			return
		}
		sentAt = p.Now()
		c.Send(p, 1_000_000, nil)
	})
	k.Run()
	elapsed := gotAt - sentAt
	// 1 MB at 25 MB/s loopback = 40 ms; no Ethernet frames used.
	if elapsed < 30*time.Millisecond || elapsed > 60*time.Millisecond {
		t.Fatalf("loopback transfer took %v", elapsed)
	}
	if n.Link().FramesCarried() != 0 {
		t.Fatal("loopback used the wire")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	l, _ := a.Listen(7)
	var err error
	k.Spawn("srv", func(p *sim.Proc) {
		_, err = l.Accept(p)
	})
	k.Schedule(time.Second, func() { l.Close() })
	if blocked := k.Run(); blocked != 0 {
		t.Fatal("accept still blocked after close")
	}
	if err != ErrListenerClose {
		t.Fatalf("err = %v", err)
	}
	// Port is reusable after close.
	if _, err := a.Listen(7); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestConnEndpointsAndSegmentTimestamps(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	l, _ := b.Listen(2)
	var seg Segment
	k.Spawn("srv", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		if c.Local() != 1 || c.Remote() != 0 {
			t.Errorf("server endpoints: %d, %d", c.Local(), c.Remote())
		}
		seg, _ = c.Recv(p)
	})
	k.Spawn("cli", func(p *sim.Proc) {
		c, err := a.Dial(p, 1, 2)
		if err != nil {
			return
		}
		if c.Local() != 0 || c.Remote() != 1 {
			t.Errorf("client endpoints: %d, %d", c.Local(), c.Remote())
		}
		p.Sleep(time.Second)
		c.Send(p, 50_000, nil)
	})
	k.Run()
	if seg.SentAt < time.Second || seg.ArrivedAt <= seg.SentAt {
		t.Fatalf("timestamps: sent %v arrived %v", seg.SentAt, seg.ArrivedAt)
	}
}

func TestDgramEphemeralPorts(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(0)
	_, p1 := a.BindDgram(0)
	_, p2 := a.BindDgram(0)
	if p1 == p2 || p1 == 0 || p2 == 0 {
		t.Fatalf("ephemeral ports: %d, %d", p1, p2)
	}
	// Binding the same explicit port returns the same queue.
	q1, _ := a.BindDgram(77)
	q2, _ := a.BindDgram(77)
	if q1 != q2 {
		t.Fatal("rebinding a port created a new queue")
	}
}

func TestIfaceAccessors(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	a := n.Attach(3)
	if a.Host() != 3 || a.Network() != n {
		t.Fatal("iface accessors wrong")
	}
	if n.Iface(3) != a || n.Iface(9) != nil {
		t.Fatal("network iface lookup wrong")
	}
	if n.Attach(3) != a {
		t.Fatal("re-attach created a new iface")
	}
}
