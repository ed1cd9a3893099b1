package checkpoint

import (
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/sim"
)

// crashBetweenImageAndCommit interrupts a writer after the image is fully on
// disk but before the commit record lands, and returns the store. With
// prior, the writer first commits a v1 image.
func crashBetweenImageAndCommit(t *testing.T, prior bool) (*sim.Kernel, *Store) {
	t.Helper()
	k := sim.NewKernel()
	st := NewStore(k)
	var start sim.Time // when the v2 write begins
	if prior {
		start = st.IOTime(1000) + st.CommitTime()
	}
	var writeErr error
	p := k.Spawn("writer", func(p *sim.Proc) {
		if prior {
			if err := st.Write(p.Sleep, "job", 1, 1000, "v1"); err != nil {
				t.Error(err)
				return
			}
		}
		writeErr = st.Write(p.Sleep, "job", 2, 4000, "v2")
	})
	// Strike inside the commit-record window: after the image write, before
	// the (much shorter) commit record completes.
	k.Schedule(start+st.IOTime(4000)+st.CommitTime()/2, func() { p.Interrupt("crash") })
	k.Run()
	if writeErr == nil {
		t.Fatal("interrupted write reported success")
	}
	if _, ok := sim.IsInterrupted(writeErr); !ok {
		t.Fatalf("want Interrupted, got %v", writeErr)
	}
	return k, st
}

// committed reads key's snapshot the way recovery does, from a proc, and
// reports whether one was committed.
func committed(t *testing.T, k *sim.Kernel, st *Store, key string) (Snapshot, bool) {
	t.Helper()
	var snap Snapshot
	var err error
	k.Spawn("reader", func(p *sim.Proc) { snap, err = st.Read(p, key) })
	k.Run()
	if err != nil && !errs.Is(err, CodeNoSnapshot) {
		t.Fatal(err)
	}
	return snap, err == nil
}

func TestTornWriteBetweenImageAndCommit(t *testing.T) {
	k, st := crashBetweenImageAndCommit(t, true)
	// Write's failure path discards the staged image itself, so not even a
	// later commit installs it.
	st.commit("job")
	// Re-open: the torn image must not be trusted; the committed v1 remains.
	snap, ok := committed(t, k, st, "job")
	if !ok || snap.Payload != "v1" || snap.Epoch != 1 {
		t.Fatalf("torn write corrupted the committed image: %+v ok=%v", snap, ok)
	}
	if n := len(st.Commits()); n != 1 {
		t.Errorf("torn write counted as committed: %d commits, want v1's 1", n)
	}
}

func TestTornFirstWriteLeavesNothing(t *testing.T) {
	k, st := crashBetweenImageAndCommit(t, false)
	if _, ok := committed(t, k, st, "job"); ok {
		t.Error("torn first write produced a readable snapshot")
	}
}

func TestStageInvisibleUntilCommit(t *testing.T) {
	k := sim.NewKernel()
	st := NewStore(k)
	st.stage("job", 3, 2000, "staged")
	if _, ok := committed(t, k, st, "job"); ok {
		t.Fatal("staged image visible before commit")
	}
	st.commit("job")
	snap, ok := committed(t, k, st, "job")
	if !ok || snap.Payload != "staged" {
		t.Fatalf("commit did not install staged image: %+v", snap)
	}
	// Commit with nothing staged is a no-op.
	st.commit("job")
	if n := len(st.Commits()); n != 1 {
		t.Errorf("empty commit counted: %d commits, want 1", n)
	}
}

func TestReadChargesDiskTime(t *testing.T) {
	k := sim.NewKernel()
	st := NewStore(k)
	var took sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		if _, err := st.Read(p, "job"); !errs.Is(err, CodeNoSnapshot) {
			t.Errorf("read before any commit: %v, want %s", err, CodeNoSnapshot)
		}
		if err := st.Write(p.Sleep, "job", 1, 1_500_000, "v1"); err != nil {
			t.Error(err)
			return
		}
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
