package upvm

import (
	"fmt"
	"slices"
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
// host 1 while no migration of it is under way. While ULP 0 does migrate to
// host 1, a header and fin of another generation are not that migration's
// stream: the run must end exactly as the migration alone ends it.
func TestMalformedProtocolMessagesAreDropped(t *testing.T) {
	type msg struct {
		host, tag int
		buf       *core.Buffer
	}
	type outcome struct {
		records string
		stages  []string
		host    int
		locs    [2]int
	}
	// run starts ULP 0 on host 0, orders it to host 1 at 1 s if migrate is
	// set, and delivers msgs 1 ms apart from at on.
	run := func(t *testing.T, migrate bool, at sim.Time, msgs []msg) outcome {
		k := sim.NewKernel()
		defer k.Close()
		cl := cluster.New(k, netsim.Params{},
			cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"))
		s := New(pvm.NewMachine(cl, pvm.Config{}), Config{})
		var out outcome
		s.SetTracer(func(_, stage, _ string) { out.stages = append(out.stages, stage) })
		if _, err := s.Start("app", []ULPSpec{{Host: 0, DataBytes: mb(0.1)}}, func(u *ULP, _ int) {
			u.Compute(u.Host().Spec().Speed * 5)
		}); err != nil {
			t.Fatal(err)
		}
		if migrate {
			k.Schedule(time.Second, func() {
				if err := s.Migrate(0, 1, "owner"); err != nil {
					t.Error(err)
				}
			})
		}
		for i, m := range msgs {
			k.Schedule(at+sim.Time(i)*time.Millisecond, func() {
				p := s.Process(m.host)
				msg := &pvm.Message{Src: core.DaemonTID(m.host), Dst: p.task.Mytid(),
					Tag: m.tag, Buf: m.buf, SentAt: k.Now()}
				h := p.Host()
				h.Iface().SendDgram(1, h.ID(), 1, msg.WireBytes(), msg)
			})
		}
		k.Run()
		out.records = fmt.Sprintf("%+v", s.Records())
		out.host, _, _ = s.Placement(0)
		for host := range out.locs {
			out.locs[host], _ = s.Process(host).locate(0)
		}
		return out
	}
	cases := []struct {
		name    string
		migrate bool
		at      sim.Time
		msgs    []msg
	}{
		{"bare migrate", false, time.Second, []msg{{0, tagCtl, core.NewBuffer().PkString("migrate")}}},
		{"truncated flush", false, time.Second, []msg{{1, tagCtl, core.NewBuffer().PkString("flush").PkInt(0).PkInt(1)}}},
		{"migrate to its own host", false, time.Second, []msg{{0, tagCtl, core.NewBuffer().PkString("migrate").PkInt(0).PkInt(0).PkString("owner")}}},
		{"migrate to host 99", false, time.Second, []msg{{0, tagCtl, core.NewBuffer().PkString("migrate").PkInt(0).PkInt(99).PkString("owner")}}},
		{"flush from host 99", false, time.Second, []msg{{1, tagCtl, core.NewBuffer().PkString("flush").PkInt(0).PkInt(1).PkInt(99).PkInt(0)}}},
		{"truncated header then fin", false, time.Second, []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
		// hdr: ulp, segment bytes, inbox count, reason, start, source host, gen.
		{"header from host 99", false, time.Second, []msg{
			{0, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(1000).PkInt(0).
				PkString("owner").PkInt(0).PkInt(99).PkInt(0)},
		}},
		{"transfer no migration asked for", false, time.Second, []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(1000).PkInt(0).
				PkString("owner").PkInt(0).PkInt(0).PkInt(1)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
		{"negative segment size then fin", false, time.Second, []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(-1000000).PkInt(0).
				PkString("owner").PkInt(0).PkInt(0).PkInt(0)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
		{"header and fin of generation 99 while ULP 0 migrates", true, 1100 * time.Millisecond, []msg{
			{1, tagXfer, core.NewBuffer().PkString("hdr").PkInt(0).PkInt(10).PkInt(0).
				PkString("forged").PkInt(0).PkInt(0).PkInt(99)},
			{1, tagXfer, core.NewBuffer().PkString("fin").PkInt(0).PkInt(0)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := run(t, tc.migrate, tc.at, tc.msgs), run(t, tc.migrate, tc.at, nil)
			if wantHost := map[bool]int{false: 0, true: 1}[tc.migrate]; want.host != wantHost ||
				(!tc.migrate && (want.records != "[]" || len(want.stages) != 0)) {
				t.Fatalf("the run without the messages ends with ULP 0 on host %d, records %s, stages %v",
					want.host, want.records, want.stages)
			}
			if got.records != want.records {
				t.Fatalf("records %s, want %s", got.records, want.records)
			}
			if !slices.Equal(got.stages, want.stages) {
				t.Fatalf("protocol stages %v, want %v", got.stages, want.stages)
			}
			if got.host != want.host || got.locs != want.locs {
				t.Fatalf("ULP 0 on host %d, located at %v; want host %d, located at %v",
					got.host, got.locs, want.host, want.locs)
			}
		})
	}
}
