package netwire_test

import (
	"fmt"
	"testing"

	"pvmigrate/internal/harness"
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
