package netwire_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/opt"
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

// seededMigration runs an ft-managed opt job on three hosts under kernel
// tie-break seed seed and migrates slave 0 to host 0 mid-run (warm or
// cold) at 3 s, returning everything schedule-visible: the protocol timeline,
// the migration records, the job's outcome and the kernel's event count.
// A harness.Scenario never seeds the tie-breaker, so the world is built
// directly.
func seededMigration(t *testing.T, seed uint64, warm bool, wire netsim.Wire) string {
	t.Helper()
	w := harness.NewWorld(harness.WorldSpec{
		Hosts:    harness.Workstations(3, "host%d", 1),
		Wire:     wire,
		TieBreak: &seed,
		System:   harness.MPVM,
		Warm:     warm,
		Trace:    true,
		FT:       &ft.Config{CheckpointEvery: 2},
	})
	defer w.Close()
	job, err := ft.StartJob(w.Mgr, ft.JobSpec{
		Opt:        opt.Params{Iterations: 10, TotalBytes: 400_000},
		SlaveHosts: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var migErr error
	w.K.ScheduleAt(3*sim.FromSeconds(1), func() {
		migErr = w.MPVM.Migrate(job.SlaveOrigs()[0], 0, core.ReasonManual)
	})
	out := job.Out()
	for !out.Done && w.K.Now() < 10*sim.FromSeconds(60) {
		w.K.RunUntil(w.K.Now() + sim.FromSeconds(1)) // heartbeats never let the queue drain
	}
	// Under a permuted order the migration may abort and resume on its
	// source host; either way its state stream has crossed the network.
	if migErr != nil || !out.Done {
		t.Fatalf("seed %d warm=%v: migrate err %v, job done %v", seed, warm, migErr, out.Done)
	}
	return fmt.Sprintf("%s\nrecords %+v\nfinished %v loss %v err %v\nevents %d",
		w.Log.Timeline("stages:"), w.MPVM.Records(), out.FinishedAt, out.Result.FinalLoss, out.Err,
		w.K.EventsScheduled())
}

// TestCrossBackendEquivalenceSeeded is the same contract under a kernel
// tie-break seed, which permutes same-instant events: an event that only
// the wire-backed run schedules draws a tie-break the in-memory run never
// draws and reorders every same-instant pair after it.
func TestCrossBackendEquivalenceSeeded(t *testing.T) {
	for _, warm := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			mem := seededMigration(t, seed, warm, nil)
			b := netwire.New()
			wire := seededMigration(t, seed, warm, b)
			st := b.Stats()
			b.Shutdown()
			if st.StreamFrames == 0 {
				t.Fatalf("seed %d warm=%v: the state transfer bypassed the wire", seed, warm)
			}
			if mem != wire {
				t.Errorf("seed %d warm=%v: runs diverge:\n--- in-memory ---\n%s\n--- wire ---\n%s", seed, warm, mem, wire)
			}
		}
	}
}

// netwireGoroutines counts the goroutines whose stacks run netwire's code,
// or were started by it. A goroutine that another part of the test binary
// starts or ends between two samples does not move it, and neither does
// this test's own goroutine ("netwire_test." is not "netwire.").
func netwireGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("pvmigrate/internal/netwire.")) {
			count++
		}
	}
	return count
}

// midRunCount samples netwireGoroutines at the first Dial, when the
// backend is live with every host socket bound and a stream open.
type midRunCount struct {
	netsim.Wire
	goroutines int
	sampled    bool
}

func (m *midRunCount) Dial(src, dst netsim.HostID, port int) (netsim.WireConn, netsim.WireConn, error) {
	c, s, err := m.Wire.Dial(src, dst, port)
	if err == nil && !m.sampled {
		m.goroutines, m.sampled = netwireGoroutines(), true
	}
	return c, s, err
}

// The backend runs on the kernel goroutine alone: mid-way through a
// wire-backed warm MPVM migration no goroutine runs netwire's code or was
// started by it, as before netwire.New.
func TestWireRunStartsNoGoroutines(t *testing.T) {
	sc := harness.Scenario{TotalBytes: 4_200_000, Iterations: 10, MigrateAt: 8 * sim.FromSeconds(1), Warm: true}
	before := netwireGoroutines()
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
	if !w.sampled {
		t.Fatal("the run never dialed a stream")
	}
	if w.goroutines != before {
		t.Errorf("%d netwire goroutines mid-run, %d before netwire.New", w.goroutines, before)
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
