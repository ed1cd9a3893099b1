package checkpoint

import (
	"testing"
	"time"

	"pvmigrate/internal/sim"
)

// crashBetweenImageAndCommit interrupts a writer after the image is fully on
// disk but before the commit record lands, and returns the store.
func crashBetweenImageAndCommit(t *testing.T, prior bool) *Store {
	t.Helper()
	k := sim.NewKernel()
	st := NewStore(k)
	if prior {
		st.Seed("job", 1, 1000, "v1")
	}
	imageTime := st.IOTime(4000)
	var writeErr error
	p := k.Spawn("writer", func(p *sim.Proc) {
		writeErr = st.Write(p, "job", 2, 4000, "v2")
	})
	// Strike inside the commit-record window: after the image write, before
	// the (much shorter) commit record completes.
	k.Schedule(imageTime+st.CommitTime()/2, func() { p.Interrupt("crash") })
	k.Run()
	if writeErr == nil {
		t.Fatal("interrupted write reported success")
	}
	if _, ok := sim.IsInterrupted(writeErr); !ok {
		t.Fatalf("want Interrupted, got %v", writeErr)
	}
	return st
}

func TestTornWriteBetweenImageAndCommit(t *testing.T) {
	st := crashBetweenImageAndCommit(t, true)
	// Re-open: the torn image must not be trusted; the committed v1 remains.
	snap, ok := st.Latest("job")
	if !ok || snap.Payload != "v1" || snap.Epoch != 1 {
		t.Fatalf("torn write corrupted the committed image: %+v ok=%v", snap, ok)
	}
	if st.Staging("job") {
		// Write's failure path discards the staged image itself.
		t.Error("torn image left staged after failed Write")
	}
	if st.Writes() != 0 {
		t.Errorf("torn write counted as committed: %d", st.Writes())
	}
}

func TestTornFirstWriteLeavesNothing(t *testing.T) {
	st := crashBetweenImageAndCommit(t, false)
	if _, ok := st.Latest("job"); ok {
		t.Error("torn first write produced a readable snapshot")
	}
}

func TestCorruptLatestFallsBackToPreviousCommitted(t *testing.T) {
	k := sim.NewKernel()
	st := NewStore(k)
	var errs []error
	k.Spawn("writer", func(p *sim.Proc) {
		errs = append(errs, st.Write(p, "job", 1, 1000, "v1"))
		errs = append(errs, st.Write(p, "job", 2, 1000, "v2"))
	})
	k.Run()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if snap, _ := st.Latest("job"); snap.Payload != "v2" {
		t.Fatalf("latest is %v, want v2", snap.Payload)
	}
	// Re-open finds the latest image corrupt: fall back one generation.
	if !st.CorruptLatest("job") {
		t.Fatal("no fallback generation found")
	}
	snap, ok := st.Latest("job")
	if !ok || snap.Payload != "v1" || snap.Epoch != 1 {
		t.Fatalf("fallback wrong: %+v ok=%v", snap, ok)
	}
	// A second corruption exhausts the generations.
	if st.CorruptLatest("job") {
		t.Error("two fallback generations from two commits")
	}
	if _, ok := st.Latest("job"); ok {
		t.Error("snapshot readable after both generations corrupt")
	}
}

func TestStageInvisibleUntilCommit(t *testing.T) {
	k := sim.NewKernel()
	st := NewStore(k)
	st.Stage("job", 3, 2000, "staged")
	if _, ok := st.Latest("job"); ok {
		t.Fatal("staged image visible before commit")
	}
	if !st.Staging("job") {
		t.Fatal("Staging not reported")
	}
	st.Commit("job")
	snap, ok := st.Latest("job")
	if !ok || snap.Payload != "staged" {
		t.Fatalf("commit did not install staged image: %+v", snap)
	}
	if st.Writes() != 1 {
		t.Errorf("commit count %d, want 1", st.Writes())
	}
	// Commit with nothing staged is a no-op.
	st.Commit("job")
	if st.Writes() != 1 || len(st.Commits()) != 1 {
		t.Errorf("empty commit counted: writes=%d commits=%d", st.Writes(), len(st.Commits()))
	}
}

func TestReadChargesDiskTime(t *testing.T) {
	k := sim.NewKernel()
	st := NewStore(k)
	st.Seed("job", 1, 1_500_000, "v1")
	var took sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := st.Read(p, "job"); err != nil {
			t.Error(err)
		}
		took = p.Now() - t0
	})
	k.Run()
	if took < 900*time.Millisecond || took > 1100*time.Millisecond {
		t.Errorf("1.5 MB at 1.5 MB/s took %v", took)
	}
}
