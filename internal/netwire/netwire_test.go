package netwire_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/sim"
)

// wireNet builds a kernel + two-host netsim network carried by a fresh
// netwire backend. The caller must Shutdown the returned backend.
func wireNet(t *testing.T) (*sim.Kernel, *netsim.Network, *netwire.Backend) {
	t.Helper()
	k := sim.NewKernel()
	b := netwire.New()
	t.Cleanup(b.Shutdown)
	n := netsim.New(k, netsim.Params{Wire: b})
	n.Attach(0)
	n.Attach(1)
	return k, n, b
}

// A cross-host datagram's payload must round-trip through the real UDP
// socket byte-identically, and the redemption must have passed through
// AwaitExternal (virtual time frozen while the socket was read).
func TestDgramRoundTripOverWire(t *testing.T) {
	k, n, b := wireNet(t)
	q, _ := n.Iface(1).BindDgram(700)
	var got any
	k.Spawn("sink", func(p *sim.Proc) {
		d, err := q.Get(p)
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		got = d.Payload
	})
	n.Iface(0).SendDgram(701, 1, 700, 512, "over-the-wire")
	k.Run()

	if got != "over-the-wire" {
		t.Fatalf("payload = %v (%T), want the sent string", got, got)
	}
	if st := b.Stats(); st.Dgrams != 1 || st.DgramBytes == 0 {
		t.Fatalf("stats = %+v, want 1 datagram with bytes", st)
	}
	if k.ExternalWaits() == 0 {
		t.Fatal("delivery never passed through AwaitExternal")
	}
}

// Payloads larger than one UDP packet are fragmented and reassembled; the
// packet counter proves fragmentation actually happened.
func TestDgramFragmentation(t *testing.T) {
	k, n, b := wireNet(t)
	big := make([]byte, 100<<10) // > 3 × 32KB chunks
	for i := range big {
		big[i] = byte(i * 31)
	}
	q, _ := n.Iface(1).BindDgram(700)
	var got []byte
	k.Spawn("sink", func(p *sim.Proc) {
		d, err := q.Get(p)
		if err != nil {
			return
		}
		got, _ = d.Payload.([]byte)
	})
	n.Iface(0).SendDgram(701, 1, 700, len(big), big)
	k.Run()

	if !bytes.Equal(got, big) {
		t.Fatalf("payload corrupted: got %d bytes, want %d intact", len(got), len(big))
	}
	if st := b.Stats(); st.DgramPackets < 4 {
		t.Fatalf("DgramPackets = %d, want >= 4 (payload should have fragmented)", st.DgramPackets)
	}
}

// Same-host datagrams must bypass the wire entirely: local control
// messages carry non-serializable payloads (reply closures), so marshaling
// them would panic.
func TestLoopbackDgramBypassesWire(t *testing.T) {
	k, n, b := wireNet(t)
	q, _ := n.Iface(0).BindDgram(700)
	closure := func() {}
	var got any
	k.Spawn("sink", func(p *sim.Proc) {
		d, err := q.Get(p)
		if err != nil {
			return
		}
		got = d.Payload
	})
	n.Iface(0).SendDgram(701, 0, 700, 64, closure)
	k.Run()

	if got == nil {
		t.Fatal("loopback datagram not delivered")
	}
	if st := b.Stats(); st.Dgrams != 0 {
		t.Fatalf("loopback traffic hit the wire: stats %+v", st)
	}
}

// Stream payloads ride a real TCP connection; every Send's bytes must come
// back from the peer's Recv in order.
func TestStreamRoundTripOverWire(t *testing.T) {
	k, n, b := wireNet(t)
	l, err := n.Iface(1).Listen(9000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var got []string
	k.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			seg, err := c.Recv(p)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			s, _ := seg.Payload.(string)
			got = append(got, s)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, err := n.Iface(0).Dial(p, 1, 9000)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for _, s := range []string{"alpha", "beta", "gamma"} {
			if err := c.Send(p, 2000, s); err != nil {
				t.Errorf("send %q: %v", s, err)
				return
			}
		}
	})
	k.Run()

	want := []string{"alpha", "beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("received %v, want %v", got, want)
		}
	}
	st := b.Stats()
	if st.Streams != 1 || st.StreamFrames < 3 || st.StreamBytes == 0 {
		t.Fatalf("stats = %+v, want 1 stream with >= 3 frames", st)
	}
	if k.ExternalWaits() == 0 {
		t.Fatal("stream deliveries never passed through AwaitExternal")
	}
}

// Shutdown is idempotent and turns subsequent operations into clean errors
// rather than hangs.
func TestShutdownIdempotent(t *testing.T) {
	b := netwire.New()
	b.AttachHost(0)
	b.AttachHost(1)
	if err := b.Listen(1, 9000); err != nil {
		t.Fatalf("listen: %v", err)
	}
	b.Shutdown()
	b.Shutdown() // second call must be a no-op

	if _, err := b.SendDgram(0, 1, 1, 2, "late"); !errors.Is(err, netwire.ErrShutdown) {
		t.Fatalf("SendDgram after shutdown: err = %v, want ErrShutdown", err)
	}
	if err := b.Listen(0, 9001); !errors.Is(err, netwire.ErrShutdown) {
		t.Fatalf("Listen after shutdown: err = %v, want ErrShutdown", err)
	}
	if _, _, err := b.Dial(0, 1, 9000); !errors.Is(err, netwire.ErrShutdown) {
		t.Fatalf("Dial after shutdown: err = %v, want ErrShutdown", err)
	}
}

// The codec round-trips the payload shapes the protocols actually send,
// including nil (pure-timing segments) and raw bytes.
func TestCodecRoundTrip(t *testing.T) {
	c := netwire.BinaryCodec{}
	for _, v := range []any{nil, "state-assumed", 42, []byte{1, 2, 3}, 3.5, true} {
		data, err := c.AppendEncode(nil, v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip %T = %v, want %v", v, got, v)
		}
	}
}

// AppendEncode must extend the caller's buffer in place and leave it
// untouched on failure — the transports' pooled-scratch discipline
// depends on both.
func TestAppendEncodeExtendsDst(t *testing.T) {
	c := netwire.BinaryCodec{}
	dst := append(make([]byte, 0, 256), "prefix"...)
	out, err := c.AppendEncode(dst, 42)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if string(out[:6]) != "prefix" || len(out) <= 6 {
		t.Fatalf("AppendEncode did not extend dst: %q", out)
	}
	if got, err := c.Decode(out[6:]); err != nil || got != 42 {
		t.Fatalf("decode appended frame = %v, %v", got, err)
	}
	if bad, err := c.AppendEncode(dst, func() {}); err == nil || len(bad) != len(dst) {
		t.Fatalf("failed encode returned (%d bytes, %v), want dst unchanged and an error", len(bad), err)
	}
}

// Encoding something unmarshalable fails loudly at Send time instead of
// silently delivering a nil payload.
func TestCodecRejectsFunctions(t *testing.T) {
	if _, err := (netwire.BinaryCodec{}).AppendEncode(nil, func() {}); err == nil {
		t.Fatal("encoding a func payload should fail")
	}
}
