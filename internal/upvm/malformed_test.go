package upvm

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// TestMalformedProtocolMessagesAreDropped delivers truncated control and
// transfer messages to a UPVM process. Each must be dropped whole, not read
// with its missing fields as zeros: a bare "migrate" would otherwise move
// ULP 0 from host 0 to host 0 (a move Migrate refuses), and a header
// missing its fields would let a later well-formed fin place ULP 0 on
// host 1, and a flush missing its source and generation would re-point a
// peer's locator at a host the ULP never left for. A well-typed host field
// out of range — a migrate to host 99, a flush or a transfer header from
// host 99 — is dropped the same way, before the flush re-points the locator
// and before the header re-acks to a host that is not there; so is a header
// whose segment size is negative, which a later fin would otherwise accept.
// So are two well-formed orders nothing asked for: a migrate of ULP 0 to
// the host it is already on, and a header and fin that would move it to
// host 1 while no migration of it is under way.
func TestMalformedProtocolMessagesAreDropped(t *testing.T) {
	type msg struct {
		host, tag int
		buf       *core.Buffer
	}
	cases := []struct {
		name string
		msgs []msg
	}{
		{"bare migrate", []msg{{0, tagCtl, core.NewBuffer().PkString("migrate")}}},
		{"truncated flush", []msg{{1, tagCtl, core.NewBuffer().PkString("flush").PkInt(0).PkInt(1)}}},
		{"migrate to its own host", []msg{{0, tagCtl, core.NewBuffer().PkString("migrate").PkInt(0).PkInt(0).PkString("owner")}}},
		{"migrate to host 99", []msg{{0, tagCtl, core.NewBuffer().PkString("migrate").PkInt(0).PkInt(99).PkString("owner")}}},
		{"flush from host 99", []msg{{1, tagCtl, core.NewBuffer().PkString("flush").PkInt(0).PkInt(1).PkInt(99).PkInt(0)}}},
		{"truncated header then fin", []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
		// hdr: ulp, segment bytes, inbox count, reason, start, source host, gen.
		{"header from host 99", []msg{
			{0, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(1000).PkInt(0).
				PkString("owner").PkInt(0).PkInt(99).PkInt(0)},
		}},
		{"transfer no migration asked for", []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(1000).PkInt(0).
				PkString("owner").PkInt(0).PkInt(0).PkInt(1)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
		{"negative segment size then fin", []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(-1000000).PkInt(0).
				PkString("owner").PkInt(0).PkInt(0).PkInt(0)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			cl := cluster.New(k, netsim.Params{},
				cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"))
			s := New(pvm.NewMachine(cl, pvm.Config{}), Config{})
			var stages []string
			s.SetTracer(func(_, stage, _ string) { stages = append(stages, stage) })
			if _, err := s.Start("app", []ULPSpec{{Host: 0, DataBytes: mb(0.1)}}, func(u *ULP, _ int) {
				u.Compute(u.Host().Spec().Speed * 5)
			}); err != nil {
				t.Fatal(err)
			}
			for i, m := range tc.msgs {
				k.Schedule(time.Second+sim.Time(i)*time.Millisecond, func() {
					p := s.Process(m.host)
					msg := &pvm.Message{Src: core.DaemonTID(m.host), Dst: p.task.Mytid(),
						Tag: m.tag, Buf: m.buf, SentAt: k.Now()}
					h := p.Host()
					h.Iface().SendDgram(1, h.ID(), 1, msg.WireBytes(), msg)
				})
			}
			k.Run()
			if n := len(s.Records()); n != 0 {
				t.Fatalf("%d records from malformed messages: %+v", n, s.Records())
			}
			if len(stages) != 0 {
				t.Fatalf("malformed messages ran protocol stages %v", stages)
			}
			if h, _, _ := s.Placement(0); h != 0 {
				t.Fatalf("ULP 0 on host %d, want 0", h)
			}
			for host := 0; host < 2; host++ {
				if h, _ := s.Process(host).locate(0); h != 0 {
					t.Fatalf("process %d locates ULP 0 on host %d, want 0", host, h)
				}
			}
		})
	}
}
