package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/errs"
)

// midRunServer drives a journal-less server, through its handler, to a point
// where the opt job's tasks, every daemon and the GS are parked mid-run.
func midRunServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Options{Config: Config{Hosts: 3}, TickWall: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{
		{"/v1/jobs", `{"kind":"opt","iterations":50}`},
		{"/v1/advance", `{"ms":2000}`},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", c[0], strings.NewReader(c[1])))
		if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
			t.Fatalf("POST %s: %d %s", c[0], rec.Code, rec.Body)
		}
	}
	return srv
}

// TestServerCloseReleasesProcs: Close unwinds the cluster's parked procs
// (and joins the pacer), so a process that opens and closes servers keeps a
// flat goroutine count once sim's worker pool has grown to one session's
// peak; the closed Core still answers reads and refuses commands.
func TestServerCloseReleasesProcs(t *testing.T) {
	midRunServer(t).Close()
	base := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		srv := midRunServer(t)
		if blocked := len(srv.core.k.Blocked()); blocked == 0 {
			t.Fatal("no proc is parked mid-run: the session no longer exercises Close")
		}
		fp := srv.core.Fingerprint()
		srv.Close()
		srv.Close() // idempotent
		if blocked := srv.core.k.Blocked(); len(blocked) != 0 {
			t.Fatalf("procs still parked after Close: %v", blocked)
		}
		if got := srv.core.Fingerprint(); got != fp {
			t.Fatalf("fingerprint %#x before Close, %#x after: the unwind must not touch the outcome", fp, got)
		}
		if _, err := srv.mutate(CmdAdvance, nil, nil); !errs.Is(err, CodeShutdown) {
			t.Fatalf("advance after Close: %v, want %s", err, CodeShutdown)
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after the first session, %d after two more", base, got)
	}
}

// TestCoreCloseAfterReplay is the same contract for a headless Replay
// caller, which owns the Core it gets back.
func TestCoreCloseAfterReplay(t *testing.T) {
	live := goldenSession(t)
	defer live.Close()
	replay := func() uint64 {
		c, err := Replay(live.Config(), live.History())
		if err != nil {
			t.Fatal(err)
		}
		if len(c.k.Blocked()) == 0 {
			t.Fatal("no proc is parked after the replay: nothing for Close to release")
		}
		c.Close()
		c.Close() // idempotent
		return c.Fingerprint()
	}
	replay()
	base := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		if got := replay(); got != goldenSessionFingerprint {
			t.Fatalf("closed replay fingerprint %#016x, want %#016x", got, uint64(goldenSessionFingerprint))
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after the first replay, %d after two more", base, got)
	}
}
