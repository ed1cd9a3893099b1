package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/errs"
)

// recordSession drives a representative session — opt submit, advance,
// manual migration, host crash with revive, load submit, owner flip — and
// journals every command, returning the journal bytes and the live core.
func recordSession(t *testing.T, cfg Config) (*bytes.Buffer, *Core) {
	t.Helper()
	var buf bytes.Buffer
	jw, err := NewJournalWriter(&buf, cfg)
	if err != nil {
		t.Fatalf("journal header: %v", err)
	}
	c := NewCore(cfg, nil)
	journaled := func(kind CommandKind, fill func(*Command)) error {
		cmd := Command{Seq: c.applied + 1, At: c.Now(), Kind: kind}
		if fill != nil {
			fill(&cmd)
		}
		// Write-ahead under the kernel bridge, exactly like Server.mutate.
		var jerr error
		c.w.K.AwaitExternal(func() { jerr = jw.Append(cmd) })
		if jerr != nil {
			t.Fatalf("journal append: %v", jerr)
		}
		return c.Apply(cmd)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("session command: %v", err)
		}
	}
	must(journaled(CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt, Iterations: 30}
	}))
	must(journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 3 * time.Second }))
	orig := c.jobs[0].Opt.SlaveOrigs()[0]
	must(journaled(CmdMigrate, func(cmd *Command) {
		cmd.Migrate = &MigrateArgs{Orig: orig, To: 2}
	}))
	must(journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 2 * time.Second }))
	must(journaled(CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "host-crash", Host: 1, OutageMs: 8000}
	}))
	must(journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 10 * time.Minute }))
	must(journaled(CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobLoad, RatePerSec: 30, Requests: 40, Seed: 9}
	}))
	must(journaled(CmdOwner, func(cmd *Command) {
		cmd.Owner = &OwnerArgs{Host: 2, Active: true}
	}))
	// One deterministic failure, journaled like everything else.
	if err := journaled(CmdMigrate, func(cmd *Command) {
		cmd.Migrate = &MigrateArgs{Orig: 424242, To: 1}
	}); !errs.Is(err, CodeNotFound) {
		t.Fatalf("expected journaled not-found failure, got %v", err)
	}
	must(journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 5 * time.Minute }))
	return &buf, c
}

func TestJournalReplayReproducesFingerprint(t *testing.T) {
	cfg := Config{Hosts: 3}
	buf, live := recordSession(t, cfg)
	if !live.jobs[0].Opt.Out().Done || !live.jobs[1].Load.Done {
		t.Fatal("live session did not finish both jobs")
	}
	if live.w.K.ExternalWaits() != uint64(live.applied) {
		t.Fatalf("external waits %d, want one per journaled command (%d)",
			live.w.K.ExternalWaits(), live.applied)
	}

	replayed, err := ReplayJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.w.K.ExternalWaits() != 0 {
		t.Fatalf("headless replay crossed the bridge %d times, want 0",
			replayed.w.K.ExternalWaits())
	}
	if lf, rf := live.Fingerprint(), replayed.Fingerprint(); lf != rf {
		t.Fatalf("replay fingerprint %016x diverged from live %016x", rf, lf)
	}
	// The fingerprint covers the trace; double-check a cheaper pair too.
	if live.TraceLen() != replayed.TraceLen() {
		t.Fatalf("trace lengths diverged: live %d, replay %d",
			live.TraceLen(), replayed.TraceLen())
	}
	if live.failed != replayed.failed {
		t.Fatalf("failed counts diverged: live %d, replay %d", live.failed, replayed.failed)
	}
}

func TestJournalReplayIsRepeatable(t *testing.T) {
	cfg := Config{Hosts: 3}
	buf, _ := recordSession(t, cfg)
	a, err := ReplayJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay a: %v", err)
	}
	b, err := ReplayJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay b: %v", err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("two replays of the same journal diverged")
	}
}

func TestJournalTornTailIsDropped(t *testing.T) {
	cfg := Config{Hosts: 3}
	buf, _ := recordSession(t, cfg)
	whole, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read intact journal: %v", err)
	}
	if whole.Torn {
		t.Fatal("intact journal reported torn")
	}

	// The daemon died mid-append: the final line is half a command.
	torn := append(append([]byte(nil), buf.Bytes()...), []byte(`{"seq":99,"at":12`)...)
	data, err := ReadJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("read torn journal: %v", err)
	}
	if !data.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(data.Commands) != len(whole.Commands) {
		t.Fatalf("torn read kept %d commands, want %d", len(data.Commands), len(whole.Commands))
	}
	// And the surviving prefix still replays.
	if _, err := Replay(data.Config, data.Commands); err != nil {
		t.Fatalf("replay after torn recovery: %v", err)
	}
}

func TestJournalRejectsMidStreamCorruption(t *testing.T) {
	cfg := Config{Hosts: 3}
	buf, _ := recordSession(t, cfg)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("session journal too short: %d lines", len(lines))
	}

	corrupt := append([]string(nil), lines...)
	corrupt[2] = `{"seq":2,` // malformed, not the final line
	_, err := ReadJournal(strings.NewReader(strings.Join(corrupt, "\n") + "\n"))
	if !errs.Is(err, CodeJournal) {
		t.Fatalf("mid-stream corruption: err = %v, want %s", err, CodeJournal)
	}

	gap := append([]string(nil), lines[:2]...)
	gap = append(gap, lines[3:]...) // drop command seq 2
	_, err = ReadJournal(strings.NewReader(strings.Join(gap, "\n") + "\n"))
	if !errs.Is(err, CodeJournal) {
		t.Fatalf("sequence gap: err = %v, want %s", err, CodeJournal)
	}

	_, err = ReadJournal(strings.NewReader(""))
	if !errs.Is(err, CodeJournal) {
		t.Fatalf("empty journal: err = %v, want %s", err, CodeJournal)
	}
	_, err = ReadJournal(strings.NewReader(`{"version":7,"config":{}}` + "\n"))
	if !errs.Is(err, CodeJournal) {
		t.Fatalf("wrong version: err = %v, want %s", err, CodeJournal)
	}
}

func TestReplayRefusesClockDrift(t *testing.T) {
	cfg := Config{Hosts: 3}
	buf, _ := recordSession(t, cfg)
	data, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	tampered := append([]Command(nil), data.Commands...)
	tampered[3].At += time.Second
	_, err = Replay(data.Config, tampered)
	if !errs.Is(err, CodeReplay) {
		t.Fatalf("tampered journal: err = %v, want %s", err, CodeReplay)
	}
}

// TestImpossibleHostCountIsAnError: a host count that cannot describe a
// cluster — from a flag (NewServer), a caller (Replay) or a journal header
// (ReadJournal, ReplayJournal) — is a coded error naming the field, not a
// makeslice panic when the cluster is built.
func TestImpossibleHostCountIsAnError(t *testing.T) {
	const header = `{"version":1,"config":{"hosts":-3,"seed":0,"checkpoint_every":2,"load_threshold":0}}` + "\n"
	for _, c := range []struct {
		name string
		run  func() error
		code errs.Code
	}{
		{"NewServer", func() error { _, err := NewServer(Options{Config: Config{Hosts: -1}}); return err }, CodeBadRequest},
		{"Replay", func() error { _, err := Replay(Config{Hosts: -1}, nil); return err }, CodeBadRequest},
		{"ReadJournal", func() error { _, err := ReadJournal(strings.NewReader(header)); return err }, CodeJournal},
		{"ReplayJournal", func() error { _, err := ReplayJournal(strings.NewReader(header)); return err }, CodeJournal},
	} {
		err := c.run()
		if errs.CodeOf(err) != c.code || !strings.Contains(err.Error(), "hosts") {
			t.Errorf("%s: got %v, want a %s error naming hosts", c.name, err, c.code)
		}
	}
}

// TestMalformedLoadJobIsABadRequest: a load job whose counts would crash
// its procs — a negative worker count, a worker_hosts list that is present
// but empty, a negative request size — is refused at submit as a
// serve.bad-request naming the field, not a kernel panic on the next
// advance. The command is journaled before it runs, so replaying the
// session must not panic either.
func TestMalformedLoadJobIsABadRequest(t *testing.T) {
	for _, c := range []struct{ field, spec string }{
		{"workers", `{"kind":"load","workers":-1,"rate_per_sec":10,"requests":20}`},
		{"worker_hosts", `{"kind":"load","worker_hosts":[],"rate_per_sec":10,"requests":20}`},
		{"req_bytes", `{"kind":"load","req_bytes":-1,"rate_per_sec":10,"requests":20}`},
	} {
		t.Run(c.field, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			var spec JobSpec
			if err := json.Unmarshal([]byte(c.spec), &spec); err != nil {
				t.Fatal(err)
			}
			live := NewCore(Config{}, nil)
			defer live.Close()
			err := apply(t, live, CmdSubmit, func(cmd *Command) { cmd.Job = &spec })
			if errs.CodeOf(err) != CodeBadRequest || !strings.Contains(err.Error(), c.field) {
				t.Errorf("submit: got %v, want a %s error naming %s", err, CodeBadRequest, c.field)
			}
			advance(t, live, time.Second)
			replayed, err := Replay(live.Config(), live.History())
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			defer replayed.Close()
			if replayed.Fingerprint() != live.Fingerprint() {
				t.Fatal("replay diverged from the live session")
			}
		})
	}
}

// TestReplayAfterCrashUnderLoadWorker is the guard for a crash under a
// serving job's worker: host 2, where worker 1 computes, crashes twice
// while requests are in flight, and the session advances in 250 ms steps,
// so RunUntil deadlines fall inside computes and a crash interrupts a
// worker's Compute. Twenty replays of the journal must each reproduce the
// live fingerprint.
func TestReplayAfterCrashUnderLoadWorker(t *testing.T) {
	cfg := Config{Hosts: 4}
	var buf bytes.Buffer
	jw, err := NewJournalWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(cfg, nil)
	defer c.Close()
	journaled := func(kind CommandKind, fill func(*Command)) {
		t.Helper()
		cmd := Command{Seq: c.applied + 1, At: c.Now(), Kind: kind}
		fill(&cmd)
		var jerr error
		c.w.K.AwaitExternal(func() { jerr = jw.Append(cmd) })
		if jerr != nil {
			t.Fatal(jerr)
		}
		if err := c.Apply(cmd); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	steps := func(n int) {
		for i := 0; i < n; i++ {
			journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 250 * time.Millisecond })
		}
	}
	journaled(CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobLoad, RatePerSec: 10, Requests: 300, Seed: 5}
	})
	if h := c.jobs[0].Load.WorkerOrigs()[1].Host(); h != 2 {
		t.Fatalf("worker 1 on host %d, want 2", h)
	}
	steps(16)
	journaled(CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "host-crash", Host: 2, OutageMs: 3000}
	})
	steps(32)
	journaled(CmdFault, func(cmd *Command) {
		cmd.Fault = &FaultArgs{Kind: "host-crash", Host: 2, OutageMs: 3000}
	})
	steps(48)
	live := c.Fingerprint()
	for i := 0; i < 20; i++ {
		r, err := ReplayJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if got := r.Fingerprint(); got != live {
			t.Fatalf("replay %d fingerprint %016x, live %016x", i, got, live)
		}
		r.Close()
	}
}
