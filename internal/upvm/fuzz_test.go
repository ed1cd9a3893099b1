package upvm

import (
	"encoding/binary"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// fuzzStrings is every string a fuzzed message can carry: the protocol's
// ops, a migration reason, and one the protocol does not know.
var fuzzStrings = []string{"migrate", "flush", "flush-ack", "accepted", "arrived",
	"hdr", "chunk", "inboxmsg", "fin", "owner", "?"}

// fuzzMsg is one message a fuzz input injects: to host 0 or 1, on tagCtl or
// tagXfer, its items in packed order.
type fuzzMsg struct {
	host  int
	xfer  bool
	items []any // int, string (one of fuzzStrings), virtual, or *core.Buffer
}

type virtual int

// The fuzz input is a script of at most three messages. Each is a header
// byte (bit 0 the host, bit 1 tagXfer rather than tagCtl), an item count,
// and that many items: a kind byte, then a 4-byte little-endian int, a
// virtual size, a nested buffer holding that int, or a one-byte index into
// fuzzStrings. A short input ends the script mid-message, so truncated
// messages, wrong item types and out-of-range values are all one mutation
// away from a well-formed message.
const (
	fuzzInt byte = iota
	fuzzString
	fuzzVirtual
	fuzzBuffer
	fuzzKinds
)

// encodeFuzzScript renders messages of int, virtual and string items in the
// script's layout: the seed corpus is written as messages, not bytes.
func encodeFuzzScript(msgs ...fuzzMsg) []byte {
	var out []byte
	for _, m := range msgs {
		h := byte(m.host & 1)
		if m.xfer {
			h |= 2
		}
		out = append(out, h, byte(len(m.items)))
		for _, it := range m.items {
			switch v := it.(type) {
			case int:
				out = binary.LittleEndian.AppendUint32(append(out, fuzzInt), uint32(int32(v)))
			case virtual:
				out = binary.LittleEndian.AppendUint32(append(out, fuzzVirtual), uint32(v))
			case string:
				for i, s := range fuzzStrings {
					if s == v {
						out = append(out, fuzzString, byte(i))
					}
				}
			}
		}
	}
	return out
}

// decodeFuzzScript reads a script back into messages; any byte string is a
// script.
func decodeFuzzScript(data []byte) []fuzzMsg {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	var msgs []fuzzMsg
	for len(data) > 0 && len(msgs) < 3 {
		hdr := take(2)
		m := fuzzMsg{host: int(hdr[0] & 1), xfer: hdr[0]&2 != 0}
		for n := int(hdr[1] % 12); n > 0 && len(data) > 0; n-- {
			switch kind := take(1)[0] % fuzzKinds; kind {
			case fuzzString:
				m.items = append(m.items, fuzzStrings[int(take(1)[0])%len(fuzzStrings)])
			default:
				v := int(int32(binary.LittleEndian.Uint32(take(4))))
				switch kind {
				case fuzzInt:
					m.items = append(m.items, v)
				case fuzzVirtual:
					m.items = append(m.items, virtual(v&0xffff))
				case fuzzBuffer:
					m.items = append(m.items, core.NewBuffer().PkInt(v))
				}
			}
		}
		msgs = append(msgs, m)
	}
	return msgs
}

func (m fuzzMsg) buffer() *core.Buffer {
	buf := core.NewBuffer()
	for _, it := range m.items {
		switch v := it.(type) {
		case int:
			buf.PkInt(v)
		case string:
			buf.PkString(v)
		case virtual:
			buf.PkVirtual(int(v))
		case *core.Buffer:
			buf.PkBuffer(v)
		}
	}
	return buf
}

// FuzzUPVMHandlers injects fuzzed tagCtl and tagXfer messages — an op
// string and typed fields, possibly truncated, mistyped or out of range —
// into a 2-host world whose ULP 0 computes on host 0, one second into its
// run. Whatever the messages say, no handler may panic, ULP 0 must end
// placed on a host of the machine, every migration recorded must move it
// between two hosts of the machine, and the run must drain: the ULP
// finishes and no migration is left open.
func FuzzUPVMHandlers(f *testing.F) {
	// TestMalformedProtocolMessagesAreDropped's cases, then well-formed
	// messages the dispatcher acts on.
	for _, seed := range [][]fuzzMsg{
		{{0, false, []any{"migrate"}}},
		{{1, false, []any{"flush", 0, 1}}},
		{{0, false, []any{"migrate", 0, 99, "owner"}}},
		{{1, false, []any{"flush", 0, 1, 99, 0}}},
		{{1, true, []any{"hdr", 0}}, {1, true, []any{"fin", 0, 0}}},
		{{0, true, []any{"hdr", 0, 1000, 0, "owner", 0, 99, 0}}},
		{{1, true, []any{"hdr", 0, -1000000, 0, "owner", 0, 0, 0}}, {1, true, []any{"fin", 0, 0}}},
		{{0, false, []any{"migrate", 0, 1, "owner"}}, {1, true, []any{"hdr", 0, 10, 0, "forged", 0, 0, 99}},
			{1, true, []any{"fin", 0, 0}}},
		{{0, false, []any{"migrate", 0, 1, "owner"}}},
		{{1, false, []any{"flush", 0, 1, 0, 1}}},
		{{1, true, []any{"hdr", 0, 1000, 0, "owner", 0, 0, 1}}, {1, true, []any{"chunk", 0, virtual(1000)}},
			{1, true, []any{"fin", 0, 0}}},
		{{0, false, []any{"accepted", 0, 1}}},
	} {
		f.Add(encodeFuzzScript(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sim.NewKernel()
		defer k.Close()
		cl := cluster.New(k, netsim.Params{},
			cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"))
		s := New(pvm.NewMachine(cl, pvm.Config{}), Config{})
		if _, err := s.Start("app", []ULPSpec{{Host: 0, DataBytes: mb(0.1)}}, func(u *ULP, _ int) {
			u.Compute(u.Host().Spec().Speed * 5)
		}); err != nil {
			t.Fatal(err)
		}
		for i, m := range decodeFuzzScript(data) {
			tag := tagCtl
			if m.xfer {
				tag = tagXfer
			}
			k.Schedule(time.Second+sim.Time(i)*time.Millisecond, func() {
				p := s.procs[m.host]
				msg := &pvm.Message{Src: core.DaemonTID(m.host), Dst: p.task.Mytid(),
					Tag: tag, Buf: m.buffer(), SentAt: k.Now()}
				h := p.Host()
				h.Iface().SendDgram(1, h.ID(), 1, msg.WireBytes(), msg)
			})
		}
		k.RunUntil(time.Hour)
		host, live, migrating := s.Placement(0)
		if host < 0 || host > 1 {
			t.Fatalf("ULP 0 placed on host %d of 2", host)
		}
		if live || migrating {
			t.Fatalf("after an hour ULP 0 is live=%v migrating=%v on host %d; blocked: %v",
				live, migrating, host, k.Blocked())
		}
		for _, rec := range s.Records() {
			if rec.From == rec.To || uint(rec.From) > 1 || uint(rec.To) > 1 {
				t.Fatalf("migration record from host %d to host %d of 2", rec.From, rec.To)
			}
		}
	})
}
