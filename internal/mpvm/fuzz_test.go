package mpvm

import (
	"encoding/binary"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/wirefmt"
)

// fuzzKinds are the control values a fuzz input can build, in the order of
// the kind index a script names them by; fields lists each one's body
// layout as its registered decoder reads it: i an int, s a string, b a
// bool.
var fuzzKinds = []struct {
	tag    wirefmt.Tag
	fields string
}{
	{tagFlushCmd, "ii"},       // orig, srcHost
	{tagFlushAck, "ii"},       // orig, host
	{tagSkeletonReq, "iisii"}, // rpc, orig, name, srcHost, bytes
	{tagSkeletonReady, "ii"},  // rpc, port
	{tagRestartCmd, "iii"},    // orig, oldTID, newTID
	{tagMigrateCmd, "iisib"},  // order.VP, order.Dest, order.Reason, orig, warm
}

// fuzzStrings is every string a fuzzed value can carry: the task's name,
// migration reasons, and strings the protocol does not know.
var fuzzStrings = []string{"worker", string(core.ReasonManual), string(core.ReasonOwnerReclaim), "", "?"}

// A fuzz input is a script of at most four control values. Each is a
// header byte (the destination host, mod 3, plus 3 × the kind index, mod
// 6) and then its fields in layout order: an int as 4 little-endian bytes
// (an int32), a string as a one-byte index into fuzzStrings, a bool as one
// byte (its low bit). A short input ends the script with zeros, so every
// field value, every host and every kind is one mutation away.
type fuzzCtl struct {
	host, kind int
	vals       []any // int, string or bool, per the kind's layout
}

// encodeFuzzScript renders control values in the script's layout: the seed
// corpus is written as values, not bytes.
func encodeFuzzScript(ctls ...fuzzCtl) []byte {
	var out []byte
	for _, c := range ctls {
		out = append(out, byte(c.host+3*c.kind))
		for _, v := range c.vals {
			switch v := v.(type) {
			case int:
				out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
			case core.TID:
				out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
			case string:
				for i, s := range fuzzStrings {
					if s == v {
						out = append(out, byte(i))
					}
				}
			case bool:
				if v {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
			}
		}
	}
	return out
}

// decodeFuzzScript builds each scripted value through the wire: its fields
// are encoded as the kind's body and the frame is handed to wirefmt.Decode,
// so the value is what the registered decoder makes of them. Any byte
// string is a script.
func decodeFuzzScript(t *testing.T, data []byte) (hosts []int, vals []any) {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	for len(data) > 0 && len(vals) < 4 {
		hdr := int(take(1)[0])
		kind := fuzzKinds[hdr/3%len(fuzzKinds)]
		var body []byte
		for _, f := range kind.fields {
			switch f {
			case 'i':
				body = wirefmt.AppendInt(body, int(int32(binary.LittleEndian.Uint32(take(4)))))
			case 's':
				body = wirefmt.AppendString(body, fuzzStrings[int(take(1)[0])%len(fuzzStrings)])
			case 'b':
				body = wirefmt.AppendBool(body, take(1)[0]&1 == 1)
			}
		}
		frame, err := wirefmt.Append(nil, nil) // a header for an empty body
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(frame[3:], uint16(kind.tag))
		binary.LittleEndian.PutUint32(frame[5:], uint32(len(body)))
		v, err := wirefmt.Decode(append(frame, body...))
		if err != nil {
			t.Fatalf("tag %d body %x: %v", kind.tag, body, err)
		}
		hosts = append(hosts, hdr%3)
		vals = append(vals, v)
	}
	return hosts, vals
}

// fuzzWorld is a 3-host machine whose one migratable task computes for 5 s
// on host 0; done reports that its body returned.
func fuzzWorld(t testing.TB) (k *sim.Kernel, s *System, orig core.TID, done *bool) {
	k = sim.NewKernel()
	cl := cluster.New(k, netsim.Params{},
		cluster.DefaultHostSpec("host1"), cluster.DefaultHostSpec("host2"), cluster.DefaultHostSpec("host3"))
	s = New(pvm.NewMachine(cl, pvm.Config{}), Config{})
	done = new(bool)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	mt, err := s.SpawnMigratable(0, "worker", 1<<20, func(mt *MTask) {
		if mt.Compute(speed*5) == nil {
			*done = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, s, mt.OrigTID(), done
}

// FuzzMPVMHandlers injects fuzzed MPVM control values — each of the
// migration protocol's control messages, with arbitrary fields — into a
// 3-host world one second into its task's run, each sent by host 0's
// daemon as a CtlMsg. Whatever the values say, no handler may panic, the
// task must finish, each original tid may have at most one live
// incarnation, and every migration recorded must move between two
// different hosts of the machine.
func FuzzMPVMHandlers(f *testing.F) {
	k, _, orig, _ := fuzzWorld(f)
	k.Close()
	away := core.MakeTID(2, 7) // a tid the task never has
	for _, seed := range [][]fuzzCtl{
		// A stop-and-copy and a warm migration to host 1, as the GS
		// orders them.
		{{0, 5, []any{orig, 1, "manual", orig, false}}},
		{{0, 5, []any{orig, 2, "owner-reclaim", orig, true}}},
		// Orders naming no host, the task's own host, or no task.
		{{0, 5, []any{orig, 99, "manual", orig, false}}},
		{{0, 5, []any{orig, -1, "?", orig, true}}},
		{{0, 5, []any{orig, 0, "manual", orig, false}}},
		{{0, 5, []any{away, 1, "manual", away, false}}},
		// Stage 2 to 4 messages with no migration behind them.
		{{1, 0, []any{orig, 0}}, {0, 1, []any{orig, 1}}},
		{{2, 0, []any{orig, 99}}},
		{{0, 1, []any{orig, -7}}},
		{{1, 2, []any{1, orig, "worker", 0, 1 << 20}}},
		{{2, 2, []any{1, orig, "", 5, -1}}},
		{{0, 3, []any{1, 50000}}, {0, 3, []any{0, -1}}},
		{{1, 4, []any{orig, orig, away}}},
		{{0, 4, []any{orig, away, orig}}},
		// A real order, then a forged ack and restart racing it.
		{{0, 5, []any{orig, 1, "manual", orig, false}}, {0, 1, []any{orig, 2}}, {2, 4, []any{orig, orig, away}}},
	} {
		f.Add(encodeFuzzScript(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, s, _, done := fuzzWorld(t)
		defer k.Close()
		hosts, vals := decodeFuzzScript(t, data)
		for i, v := range vals {
			k.Schedule(time.Second+sim.Time(i)*time.Millisecond, func() {
				s.m.Daemon(0).SendCtl(hosts[i], ctlBytes, &pvm.CtlMsg{Kind: "mpvm", Payload: v})
			})
		}
		k.RunUntil(time.Hour)
		if !*done {
			t.Fatalf("after an hour the task has not finished; blocked: %v", k.Blocked())
		}
		for _, o := range s.VPIDs() {
			live := 0
			for _, inc := range s.Incarnations(o) {
				if !inc.Exited() {
					live++
				}
			}
			if live > 1 {
				t.Fatalf("%v has %d live incarnations", o, live)
			}
		}
		for _, rec := range s.Records() {
			if rec.From == rec.To || uint(rec.From) > 2 || uint(rec.To) > 2 {
				t.Fatalf("migration record from host %d to host %d of 3", rec.From, rec.To)
			}
		}
	})
}
