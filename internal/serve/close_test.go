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
		if blocked := len(srv.core.w.K.Blocked()); blocked == 0 {
			t.Fatal("no proc is parked mid-run: the session no longer exercises Close")
		}
		fp := srv.core.Fingerprint()
		srv.Close()
		srv.Close() // idempotent
		if blocked := srv.core.w.K.Blocked(); len(blocked) != 0 {
			t.Fatalf("procs still parked after Close: %v", blocked)
		}
		if got := srv.core.Fingerprint(); got != fp {
			t.Fatalf("fingerprint %#x before Close, %#x after: the unwind must not touch the outcome", fp, got)
		}
		if _, err := srv.mutate(Command{Kind: CmdAdvance}, nil); !errs.Is(err, CodeShutdown) {
			t.Fatalf("advance after Close: %v, want %s", err, CodeShutdown)
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after the first session, %d after two more", base, got)
	}
}

// TestReplayReturnsClosedCore: Replay built its kernel, so it closes it on
// every return path — a clean replay, a clock-mismatch abort and an
// unknown-command abort — and its caller has nothing to release. The closed
// Core still reads (a clean replay reproduces the golden fingerprint) and
// refuses every further command; replaying repeatedly with no Close by the
// caller keeps the goroutine count flat.
func TestReplayReturnsClosedCore(t *testing.T) {
	live := goldenSession(t)
	defer live.Close()
	if len(live.w.K.Blocked()) == 0 {
		t.Fatal("no proc is parked after the session: a replay leaves nothing for Close to release")
	}
	clean := live.History()
	drift := append([]Command(nil), clean...)
	drift[3].At += time.Second
	unknown := append(append([]Command(nil), clean[:3]...),
		Command{Seq: 4, At: clean[3].At, Kind: "teleport"})
	cases := []struct {
		name string
		cmds []Command
		code errs.Code
	}{
		{"clean", clean, ""},
		{"clock-mismatch", drift, CodeReplay},
		{"unknown-command", unknown, CodeUnknownCommand},
	}
	replayAll := func() {
		t.Helper()
		for _, tc := range cases {
			c, err := Replay(live.Config(), tc.cmds)
			if (tc.code == "") != (err == nil) || (err != nil && !errs.Is(err, tc.code)) {
				t.Fatalf("%s: replay err %v, want code %q", tc.name, err, tc.code)
			}
			if blocked := c.Kernel().Blocked(); len(blocked) != 0 {
				t.Fatalf("%s: procs still parked after Replay returned: %v", tc.name, blocked)
			}
			if tc.code == "" && c.Fingerprint() != goldenSessionFingerprint {
				t.Fatalf("%s: closed replay fingerprint %#016x, want %#016x",
					tc.name, c.Fingerprint(), uint64(goldenSessionFingerprint))
			}
			applied := len(c.History())
			next := Command{Seq: applied + 1, At: c.Now(), Kind: CmdAdvance, Advance: time.Second}
			if err := c.Apply(next); !errs.Is(err, CodeShutdown) {
				t.Fatalf("%s: Apply on the returned Core: %v, want %s", tc.name, err, CodeShutdown)
			}
			if got := len(c.History()); got != applied {
				t.Fatalf("%s: history %d -> %d commands: a refused command is not applied",
					tc.name, applied, got)
			}
		}
	}
	replayAll() // sim's worker pool grows to one replay's peak
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		replayAll()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after the first round of replays, %d after three more", base, got)
	}
}
