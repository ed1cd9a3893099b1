package mpvm

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// abortRun drives one migration whose destination host fails at failAt,
// then a retry to a healthy host, and renders everything an abort-path
// reordering would move: the protocol trace, when a peer's sends to the
// flush-fenced victim returned, when the victim finished, the records and
// the abort-hook count.
func abortRun(t *testing.T, warm bool, failAt sim.Time) string {
	t.Helper()
	k, s := testSystem(t, 3)
	var b strings.Builder
	s.SetTracer(func(actor, stage, detail string) {
		fmt.Fprintf(&b, "%d %s %s %s\n", int64(k.Now()), actor, stage, detail)
	})
	aborts := 0
	s.OnAbort(func(core.TID) { aborts++ })
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	const msgs = 12
	victim, err := s.SpawnMigratable(0, "victim", 8<<20, func(mt *MTask) {
		mt.SetDirtyRate(256 << 10)
		if err := mt.Compute(speed * 60); err != nil {
			t.Errorf("compute: %v", err)
		}
		fmt.Fprintf(&b, "victim got")
		for i := 0; i < msgs; i++ {
			_, _, r, err := mt.Recv(core.AnyTID, core.AnyTag)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			v, _ := r.UpkInt()
			fmt.Fprintf(&b, " %d", v)
		}
		fmt.Fprintf(&b, "; done %d on %s\n", int64(mt.Proc().Now()), mt.Host().Name())
	})
	if err != nil {
		t.Fatal(err)
	}
	// The peer's first three messages sit in the victim's inbox when the
	// transfer takes it (and the abort must put them back, in order); the
	// rest go through the stage-2 fence, stalled from the flush until the
	// cancel (or restart) broadcast reaches the peer's host.
	if _, err := s.SpawnMigratable(2, "peer", 1<<20, func(mt *MTask) {
		for i := 0; i < msgs; i++ {
			if i >= 3 {
				if err := mt.Proc().Sleep(time.Second); err != nil {
					return
				}
			}
			if err := mt.Send(victim.OrigTID(), 7, core.NewBuffer().PkInt(i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			fmt.Fprintf(&b, "peer sent %d at %d\n", i, int64(mt.Proc().Now()))
		}
	}); err != nil {
		t.Fatal(err)
	}
	migrate := s.Migrate
	if warm {
		migrate = s.MigrateWarm
	}
	k.Schedule(time.Second, func() {
		if err := migrate(victim.OrigTID(), 1, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	k.Schedule(failAt, func() { s.Machine().Cluster().Host(1).Fail() })
	k.Schedule(30*time.Second, func() {
		if victim.Migrating() {
			t.Error("victim still marked migrating after the abort settled")
		}
		if err := migrate(victim.OrigTID(), 2, core.ReasonOwnerReclaim); err != nil {
			t.Errorf("retry: %v", err)
		}
	})
	k.Run()
	for _, r := range s.Records() {
		fmt.Fprintf(&b, "record %+v\n", r)
	}
	fmt.Fprintf(&b, "aborts %d\n", aborts)
	if aborts != 1 || len(s.Records()) != 1 || len(s.migrations) != 0 {
		t.Fatalf("aborts %d, records %d, pending %d; want 1, 1, 0\n%s",
			aborts, len(s.Records()), len(s.migrations), b.String())
	}
	return b.String()
}

// TestGoldenAbortDigests pins the abort-to-source ordering — close the
// transfer connection, restore the taken inbox, release a frozen victim,
// broadcast the cancel — for cold and warm migrations whose destination
// dies mid-transfer (3 s), whose skeleton never answers (destination dies
// at 1.2 s, after the flush and before the skeleton listens), and for a
// warm migration whose destination dies during the final delta, with the
// victim frozen and its inbox taken.
func TestGoldenAbortDigests(t *testing.T) {
	for _, c := range []struct {
		name   string
		warm   bool
		failAt sim.Time
		stage  string
		want   uint64
	}{
		{"cold/mid-transfer", false, 3 * time.Second, "transfer to host1 failed", 0xb180cc6f54363ef1},
		{"warm/mid-transfer", true, 3 * time.Second, "precopy round 0 to host1 failed", 0x6c92589e2d360df7},
		{"cold/no-skeleton", false, 1200 * time.Millisecond, "no skeleton on host1 within", 0xb55fc9027c2a5e03},
		{"warm/no-skeleton", true, 1200 * time.Millisecond, "no skeleton on host1 within", 0xe4a0ecc0266ca09b},
		{"warm/at-cutover", true, 15200 * time.Millisecond, "final delta to host1 failed", 0x2056013c57b8bfea},
	} {
		got := abortRun(t, c.warm, c.failAt)
		if !strings.Contains(got, c.stage) {
			t.Errorf("%s: run no longer takes the %q abort path\n%s", c.name, c.stage, got)
		}
		h := fnv.New64a()
		h.Write([]byte(got))
		if sum := h.Sum64(); sum != c.want {
			t.Errorf("%s: digest %#x, want %#x\n%s", c.name, sum, c.want, got)
		}
	}
}
