package netwire_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// streamPair dials one stream on a fresh backend: host 0 → host 1, port 9000.
func streamPair(tb testing.TB) (client, server netsim.WireConn) {
	tb.Helper()
	b := netwire.New()
	tb.Cleanup(b.Shutdown)
	if err := b.Listen(1, 9000); err != nil {
		tb.Fatalf("listen: %v", err)
	}
	c, s, err := b.Dial(0, 1, 9000)
	if err != nil {
		tb.Fatalf("dial: %v", err)
	}
	return c, s
}

// dgramHosts returns a fresh backend with hosts 0 and 1 attached.
func dgramHosts(tb testing.TB) *netwire.Backend {
	b := netwire.New()
	tb.Cleanup(b.Shutdown)
	b.AttachHost(0)
	b.AttachHost(1)
	return b
}

// A warm stream frame's trip allocates nothing of netwire's or wirefmt's
// own: the send's scatter-gather list is the endpoint's, the receive reads
// into the endpoint's scratch and the decode's cursor is pooled. A nil
// payload decodes to no value, so the whole Send+Recv is zero.
func TestStreamFrameZeroAlloc(t *testing.T) {
	c, s := streamPair(t)
	var seq uint64
	frame := func() {
		seq++
		if err := c.Send(seq, nil); err != nil {
			t.Fatalf("send %d: %v", seq, err)
		}
		if v, err := s.Recv(seq); err != nil || v != nil {
			t.Fatalf("recv %d = %v, %v; want nil, nil", seq, v, err)
		}
	}
	frame() // first frame grows the read scratch and fills the cursor pool
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Errorf("stream frame Send+Recv allocates %v times, want 0", n)
	}
}

// A warm single-packet datagram is decoded straight from the packet
// buffer: SendDgram+RecvDgram of a nil payload allocates nothing.
func TestDgramZeroAlloc(t *testing.T) {
	b := dgramHosts(t)
	dgram := func() {
		tok, err := b.SendDgram(0, 701, 1, 700, nil)
		if err != nil {
			t.Fatalf("send: %v", err)
		}
		if v, err := b.RecvDgram(tok); err != nil || v != nil {
			t.Fatalf("recv %d = %v, %v; want nil, nil", tok, v, err)
		}
	}
	dgram()
	if n := testing.AllocsPerRun(100, dgram); n != 0 {
		t.Errorf("datagram SendDgram+RecvDgram allocates %v times, want 0", n)
	}
}

// One cross-host task-to-task pvm message over real sockets, both routings
// (daemon datagrams and a direct TCP stream), allocates exactly its
// objects: the Message and Buffer the sender packs, and the Message and
// Buffer the receiver decodes and keeps. The in-memory hop's own count
// (pvm.TestCrossHostMessageAllocs) is the first two.
func TestWireMessageAllocs(t *testing.T) {
	for _, direct := range []bool{false, true} {
		t.Run(fmt.Sprintf("direct=%v", direct), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			b := netwire.New()
			defer b.Shutdown()
			cl := cluster.New(k, netsim.Params{Wire: b}, cluster.DefaultHostSpec("host1"), cluster.DefaultHostSpec("host2"))
			m := pvm.NewMachine(cl, pvm.Config{DirectRoute: direct})
			const tag = 5
			var got, sum int
			recv, err := m.Spawn(1, "recv", func(task *pvm.Task) {
				for {
					_, _, r, err := task.Recv(core.AnyTID, tag)
					if err != nil {
						return
					}
					sum += r.UpkInt()
					if r.Err() != nil {
						t.Errorf("unpack: %v", r.Err())
					}
					got++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			next := sim.NewQueue[int](k)
			if _, err := m.Spawn(0, "send", func(task *pvm.Task) {
				for {
					v, err := next.Get(task.Proc())
					if err != nil {
						return
					}
					if err := task.Send(recv.Mytid(), tag, core.NewBuffer().PkInt(v)); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			step := func() {
				next.TryPut(1)
				k.RunUntil(k.Now() + sim.Time(time.Second))
			}
			step() // spawn both tasks, dial the direct route, warm every pool
			step()
			if n := testing.AllocsPerRun(50, step); n != 4 {
				t.Errorf("one message over the wire allocates %v times, want 4 (Message and Buffer, sent and decoded)", n)
			}
			if got != 53 || sum != 53 {
				t.Errorf("received %d messages summing %d, want 53 and 53", got, sum)
			}
			if b.Stats().Dgrams+b.Stats().StreamFrames < 53 {
				t.Errorf("stats %+v: the messages did not ride the wire", b.Stats())
			}
		})
	}
}

// fill returns n bytes of value v.
func fill(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

// wireValues are the two payload shapes that keep frame bytes: a bare
// []byte (wirefmt's TagBytes) and a buffer's PkBytes item. Each payload
// frame i has the same length and different bytes, so a decoded value that
// aliased the reused read storage would change when the next frame lands.
var wireValues = []struct {
	name    string
	payload func(i int) any
	bytes   func(v any) []byte
}{
	{"bytes", func(i int) any { return fill(48, byte(i)) }, func(v any) []byte { b, _ := v.([]byte); return b }},
	{"buffer", func(i int) any { return core.NewBuffer().PkBytes(fill(48, byte(i))) }, func(v any) []byte {
		buf, _ := v.(*core.Buffer)
		if buf == nil {
			return nil
		}
		return buf.Reader().UpkBytes()
	}},
}

// checkKept fails unless every decoded value still holds its own frame's
// bytes.
func checkKept(t *testing.T, kept map[int][]byte) {
	t.Helper()
	for i, b := range kept {
		if !bytes.Equal(b, fill(48, byte(i))) {
			t.Errorf("value decoded from frame %d now reads %x: it aliases reused read storage", i, b)
		}
	}
}

// Decoded values own their bytes: after later frames are read over the
// same socket, a []byte and a PkBytes item decoded earlier are unchanged,
// whether their frame was decoded as it was read or parked out of order.
func TestWireDecodeDoesNotAlias(t *testing.T) {
	for _, w := range wireValues {
		t.Run("stream/"+w.name, func(t *testing.T) {
			c, s := streamPair(t)
			kept := map[int][]byte{}
			recv := func(i int) {
				v, err := s.Recv(uint64(i))
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				kept[i] = w.bytes(v)
			}
			for i := 1; i <= 4; i++ {
				if err := c.Send(uint64(i), w.payload(i)); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			recv(1) // in order, from the scratch
			recv(3) // reads 2 first and parks it, decodes 3 from the scratch
			recv(2) // from the parked copy
			recv(4) // overwrites the scratch 1 and 3 were read into
			checkKept(t, kept)
		})
		t.Run("dgram/"+w.name, func(t *testing.T) {
			b := dgramHosts(t)
			kept := map[int][]byte{}
			toks := map[int]uint64{}
			for i := 1; i <= 4; i++ {
				tok, err := b.SendDgram(0, 701, 1, 700, w.payload(i))
				if err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				toks[i] = tok
			}
			for _, i := range []int{1, 3, 2, 4} { // as for the stream above
				v, err := b.RecvDgram(toks[i])
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				kept[i] = w.bytes(v)
			}
			checkKept(t, kept)
		})
	}
}

// BenchmarkFrameSendRecv is one warm stream frame and one warm datagram,
// each carrying a small message buffer, sent and received.
func BenchmarkFrameSendRecv(b *testing.B) {
	payload := core.NewBuffer().PkInt(7).PkString("status").PkFloat64s([]float64{1, 2, 3})
	b.Run("stream", func(b *testing.B) {
		c, s := streamPair(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Send(uint64(i), payload); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Recv(uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dgram", func(b *testing.B) {
		be := dgramHosts(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tok, err := be.SendDgram(0, 701, 1, 700, payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := be.RecvDgram(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
}
