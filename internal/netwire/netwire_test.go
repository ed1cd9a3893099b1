package netwire_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pvmigrate/internal/errs"
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

// Stream payloads ride the destination host's socket; every Send's bytes
// must come back from the peer's Recv in order.
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

// dial listens on (host 1, port) and dials it from host 0, as netsim does.
func dial(t *testing.T, b *netwire.Backend, port int) (client, server netsim.WireConn) {
	t.Helper()
	if err := b.Listen(1, port); err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, s, err := b.Dial(0, 1, port)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return c, s
}

// A frame sent toward an endpoint that is closed before its Recv is still
// read off the destination host's socket and reported lost; the socket
// stays in step, so the next datagram to that host decodes.
func TestStreamFrameToClosedEndpointIsLost(t *testing.T) {
	b := dgramHosts(t)
	c, s := dial(t, b, 9000)
	if err := c.Send(1, "in flight"); err != nil {
		t.Fatalf("send: %v", err)
	}
	s.Close()
	if v, err := s.Recv(1); !errs.Is(err, netwire.CodeStreamClosed) {
		t.Fatalf("recv on closed endpoint = %v, %v; want %s", v, err, netwire.CodeStreamClosed)
	}
	tok, err := b.SendDgram(0, 701, 1, 700, "after")
	if err != nil {
		t.Fatalf("send datagram: %v", err)
	}
	if v, err := b.RecvDgram(tok); err != nil || v != "after" {
		t.Fatalf("next datagram to the host = %v, %v; want \"after\"", v, err)
	}
}

// Recv of a sequence number the peer never sent fails at once instead of
// waiting out the wire timeout.
func TestStreamRecvOfUnsentSeqFailsAtOnce(t *testing.T) {
	c, s := dial(t, dgramHosts(t), 9000)
	if err := c.Send(1, "sent"); err != nil {
		t.Fatalf("send: %v", err)
	}
	start := time.Now()
	if v, err := s.Recv(2); !errs.Is(err, netwire.CodeUnknownToken) {
		t.Fatalf("recv of unsent seq = %v, %v; want %s", v, err, netwire.CodeUnknownToken)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("recv of unsent seq took %v, want an immediate failure", d)
	}
	if v, err := s.Recv(1); err != nil || v != "sent" {
		t.Fatalf("recv of the sent frame = %v, %v; want \"sent\"", v, err)
	}
}

// Datagrams and the frames of two streams toward one host share that
// host's one socket. Redeemed in reverse send order (the first receive
// parks everything sent before its frame), every one decodes to its own
// payload.
func TestFramesShareHostSocket(t *testing.T) {
	b := dgramHosts(t)
	c1, s1 := dial(t, b, 9000)
	c2, s2 := dial(t, b, 9001)
	type frame struct {
		want string
		recv func() (any, error)
	}
	var frames []frame
	for i := 0; i < 20; i++ {
		seq, want := uint64(i), fmt.Sprintf("dgram %d", i)
		tok, err := b.SendDgram(0, 701, 1, 700, want)
		if err != nil {
			t.Fatalf("send %q: %v", want, err)
		}
		frames = append(frames, frame{want, func() (any, error) { return b.RecvDgram(tok) }})
		for j, ep := range [][2]netsim.WireConn{{c1, s1}, {c2, s2}} {
			want := fmt.Sprintf("stream %d frame %d", j, i)
			if err := ep[0].Send(seq, want); err != nil {
				t.Fatalf("send %q: %v", want, err)
			}
			frames = append(frames, frame{want, func() (any, error) { return ep[1].Recv(seq) }})
		}
	}
	for i := len(frames) - 1; i >= 0; i-- {
		if v, err := frames[i].recv(); err != nil || v != frames[i].want {
			t.Fatalf("receive of %q = %v, %v", frames[i].want, v, err)
		}
	}
	if st := b.Stats(); st.Dgrams != 20 || st.DgramPackets != 20 || st.Streams != 2 || st.StreamFrames != 40 {
		t.Errorf("stats = %+v, want 20 datagrams in 20 packets and 2 streams of 40 frames", st)
	}
}
