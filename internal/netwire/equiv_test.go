package netwire_test

import (
	"fmt"
	"runtime"
	"testing"

	"pvmigrate/internal/harness"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/sim"
)

// The central contract of the wire backend: it substitutes payload bytes
// only, never timing. A full MPVM migration scenario — spawn, compute,
// flush barrier, skeleton handshake, TCP state stream, restart broadcast —
// must produce the identical virtual-time protocol trace, application
// runtime, and migration measurements whether payloads ride the in-memory
// backend or real loopback sockets, for both transport routings
// (daemon-datagram and direct-TCP).
func TestCrossBackendEquivalence(t *testing.T) {
	for _, direct := range []bool{false, true} {
		t.Run(fmt.Sprintf("codec=binary/direct=%v", direct), func(t *testing.T) {
			sc := harness.Scenario{
				Seed:      7,
				MigrateAt: 8 * sim.FromSeconds(1),
				Direct:    direct,
			}

			memLog, memOut := harness.TraceMPVMMigration(sc)
			if memOut.Err != nil {
				t.Fatalf("in-memory run: %v", memOut.Err)
			}

			b := netwire.New()
			defer b.Shutdown()
			sc.Wire = b
			wireLog, wireOut := harness.TraceMPVMMigration(sc)
			if wireOut.Err != nil {
				t.Fatalf("wire run: %v", wireOut.Err)
			}

			memTL := memLog.Timeline("stages:")
			wireTL := wireLog.Timeline("stages:")
			if memTL != wireTL {
				t.Errorf("protocol timelines diverge:\n--- in-memory ---\n%s\n--- wire ---\n%s", memTL, wireTL)
			}
			if memOut.Elapsed != wireOut.Elapsed {
				t.Errorf("Elapsed: in-memory %v, wire %v", memOut.Elapsed, wireOut.Elapsed)
			}
			if len(memOut.Records) != len(wireOut.Records) {
				t.Fatalf("migration records: in-memory %d, wire %d", len(memOut.Records), len(wireOut.Records))
			}
			for i := range memOut.Records {
				if memOut.Records[i] != wireOut.Records[i] {
					t.Errorf("record %d: in-memory %+v, wire %+v", i, memOut.Records[i], wireOut.Records[i])
				}
			}
			if memOut.Result.Iterations != wireOut.Result.Iterations {
				t.Errorf("iterations: in-memory %d, wire %d", memOut.Result.Iterations, wireOut.Result.Iterations)
			}

			st := b.Stats()
			if st.Dgrams == 0 {
				t.Error("wire run sent no datagrams — backend was not exercised")
			}
			if st.Streams == 0 || st.StreamFrames == 0 {
				t.Error("wire run opened no streams — the state transfer bypassed the wire")
			}
		})
	}
}

// midRunCount samples runtime.NumGoroutine at the first Dial, when the
// backend is live with every host socket bound and a stream open.
type midRunCount struct {
	netsim.Wire
	goroutines int
}

func (m *midRunCount) Dial(src, dst netsim.HostID, port int) (netsim.WireConn, netsim.WireConn, error) {
	c, s, err := m.Wire.Dial(src, dst, port)
	if err == nil && m.goroutines == 0 {
		m.goroutines = runtime.NumGoroutine()
	}
	return c, s, err
}

// The backend runs on the kernel goroutine alone: mid-way through a
// wire-backed warm MPVM migration there are exactly as many goroutines as
// before netwire.New. A first in-memory run fills the kernel's
// process-wide coroutine pool, whose idle workers are goroutines too.
func TestWireRunStartsNoGoroutines(t *testing.T) {
	sc := harness.Scenario{TotalBytes: 4_200_000, Iterations: 10, MigrateAt: 8 * sim.FromSeconds(1), Warm: true}
	if out := harness.RunMPVM(sc); out.Err != nil {
		t.Fatalf("in-memory run: %v", out.Err)
	}
	before := runtime.NumGoroutine()
	b := netwire.New()
	defer b.Shutdown()
	w := &midRunCount{Wire: b}
	sc.Wire = w
	out := harness.RunMPVM(sc)
	if out.Err != nil {
		t.Fatalf("wire run: %v", out.Err)
	}
	if len(out.Records) != 1 || out.Records[0].PrecopyBytes == 0 {
		t.Fatalf("records %+v, want one warm migration with precopy", out.Records)
	}
	if w.goroutines == 0 {
		t.Fatal("the run never dialed a stream")
	}
	if w.goroutines != before {
		t.Errorf("%d goroutines mid-run, %d before netwire.New", w.goroutines, before)
	}
}

// The baseline PVM application (no migration machinery) must also be
// backend-invariant — this covers the steady-state data path at scale:
// four hosts, daemon-routed and direct variants, thousands of frames.
func TestCrossBackendEquivalencePVM(t *testing.T) {
	for _, direct := range []bool{false, true} {
		sc := harness.Scenario{Hosts: 4, Seed: 3, Direct: direct}
		mem := harness.RunPVM(sc)
		if mem.Err != nil {
			t.Fatalf("in-memory run (direct=%v): %v", direct, mem.Err)
		}
		b := netwire.New()
		sc.Wire = b
		wire := harness.RunPVM(sc)
		st := b.Stats()
		b.Shutdown()
		if wire.Err != nil {
			t.Fatalf("wire run (direct=%v): %v", direct, wire.Err)
		}
		if mem.Elapsed != wire.Elapsed {
			t.Errorf("direct=%v: Elapsed in-memory %v, wire %v", direct, mem.Elapsed, wire.Elapsed)
		}
		// Daemon routing carries data as datagrams; direct routing dials
		// task-to-task streams (and may need no cross-host datagrams at all).
		if !direct && st.Dgrams == 0 {
			t.Errorf("direct=%v: wire run sent no datagrams", direct)
		}
		if direct && st.Streams == 0 {
			t.Errorf("direct=%v: no task-to-task streams hit the wire", direct)
		}
	}
}

// Wire-backed MPVM-cold and UPVM migrations read each packet they wrote
// exactly once: two syscalls per packet, one write and one read, none
// retried for lack of bytes and none left on a pair.
func TestWireRunsReadEveryPacketOnce(t *testing.T) {
	for _, run := range []struct {
		name string
		run  func(harness.Scenario) *harness.Outcome
	}{{"mpvm-cold", harness.RunMPVM}, {"upvm", harness.RunUPVM}} {
		b := netwire.New()
		sc := harness.Scenario{TotalBytes: 1_800_000, MigrateAt: 8 * sim.FromSeconds(1), Wire: b}
		out := run.run(sc)
		b.Shutdown()
		if out.Err != nil || len(out.Records) != 1 {
			t.Fatalf("%s: err %v, %d records; want one migration", run.name, out.Err, len(out.Records))
		}
		st := b.Stats()
		if written := st.DgramPackets + st.StreamPackets; st.PacketsRead != written || written == 0 {
			t.Errorf("%s: read %d packets of %d written (%+v)", run.name, st.PacketsRead, written, st)
		}
	}
}
