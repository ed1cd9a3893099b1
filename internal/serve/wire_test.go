package serve

import (
	"bytes"
	"testing"
	"time"

	"pvmigrate/internal/netwire"
)

// TestWireJournalReplay: a daemon whose frames ride the real transport
// under a tie-break seed journals a session that an in-memory replay
// reproduces (`pvmsimd -wire -seed N -journal f`, then `pvmsimd -replay
// f`). The wire substitutes payload bytes only, never timing, so nothing
// the seeded schedule orders may depend on it.
func TestWireJournalReplay(t *testing.T) {
	for _, hosts := range []int{3, 4} {
		for seed := uint64(1); seed <= 12; seed++ {
			var journal bytes.Buffer
			b := netwire.New()
			srv, err := NewServer(Options{Config: Config{Hosts: hosts, Seed: seed}, Wire: b, Journal: &journal})
			if err != nil {
				t.Fatal(err)
			}
			// A command's own failure is journaled and replayed like its
			// success; only the fingerprints are compared.
			do := func(cmd Command) { _, _ = srv.mutate(cmd, nil) }
			do(Command{Kind: CmdSubmit, Job: &JobSpec{Kind: JobOpt, Iterations: 30}})
			do(Command{Kind: CmdAdvance, Advance: 3 * time.Second})
			do(Command{Kind: CmdMigrate, Migrate: &MigrateArgs{Orig: srv.core.jobs[0].Opt.SlaveOrigs()[0], To: 2}})
			do(Command{Kind: CmdAdvance, Advance: 2 * time.Second})
			do(Command{Kind: CmdFault, Fault: &FaultArgs{Kind: "host-crash", Host: 1, OutageMs: 8000}})
			do(Command{Kind: CmdAdvance, Advance: 10 * time.Minute})
			do(Command{Kind: CmdSubmit, Job: &JobSpec{Kind: JobLoad, RatePerSec: 30, Requests: 40, Seed: 9}})
			do(Command{Kind: CmdOwner, Owner: &OwnerArgs{Host: 2, Active: true}})
			do(Command{Kind: CmdAdvance, Advance: 5 * time.Minute})
			live := srv.core.Fingerprint()
			srv.Close()
			st := b.Stats()
			b.Shutdown()
			if st.StreamFrames == 0 {
				t.Fatalf("hosts=%d seed=%d: no state stream crossed the wire", hosts, seed)
			}
			replayed, err := ReplayJournal(&journal)
			if err != nil {
				t.Fatalf("hosts=%d seed=%d: replay: %v", hosts, seed, err)
			}
			if got := replayed.Fingerprint(); got != live {
				t.Errorf("hosts=%d seed=%d: replay fingerprint %016x, wire session %016x", hosts, seed, got, live)
			}
		}
	}
}
