package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
)

// recordPlanSession drives a session whose journal contains a plan
// command: a load job pinned to host 1, then a warm evacuation plan of
// that host with placement-picked destinations, then enough advance for
// the plan to settle.
func recordPlanSession(t *testing.T, cfg Config) (*bytes.Buffer, *Core) {
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
		cmd.Job = &JobSpec{
			Kind: JobLoad, Workers: 3, WorkerHosts: []int{1},
			RatePerSec: 20, Requests: 400, Seed: 5,
		}
	}))
	must(journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 2 * time.Second }))
	from := 1
	must(journaled(CmdPlan, func(cmd *Command) {
		cmd.Plan = &PlanArgs{
			Name: "evac-h1",
			Groups: []PlanGroup{{
				Name: "all", FromHost: &from, Mode: "warm",
				Placement: "least-loaded", Concurrency: 2,
			}},
		}
	}))
	must(journaled(CmdAdvance, func(cmd *Command) { cmd.Advance = 5 * time.Minute }))
	return &buf, c
}

func TestPlanCommandExecutesAndReplays(t *testing.T) {
	cfg := Config{Hosts: 4}
	buf, live := recordPlanSession(t, cfg)

	plans := live.plans
	if len(plans) != 1 || !plans[0].Done || plans[0].Result == nil {
		t.Fatalf("plans = %+v", plans)
	}
	res := plans[0].Result
	if res.Moved != 3 || res.Failed != 0 {
		t.Fatalf("plan result = %+v", res)
	}
	warm := 0
	for _, r := range live.w.MPVM.Records() {
		if r.Mode == core.MigrationWarm {
			warm++
			if r.Frozen == 0 || r.Downtime() <= 0 {
				t.Fatalf("warm record missing freeze accounting: %+v", r)
			}
		}
	}
	if warm != 3 {
		t.Fatalf("warm records = %d, want 3", warm)
	}
	for _, v := range migrationViews(live) {
		if v.Mode == core.MigrationWarm && (v.Rounds < 1 || v.PrecopyBytes <= 0) {
			t.Fatalf("migration view missing warm fields: %+v", v)
		}
	}

	replayed, err := ReplayJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if lf, rf := live.Fingerprint(), replayed.Fingerprint(); lf != rf {
		t.Fatalf("replay fingerprint %016x diverged from live %016x", rf, lf)
	}
	rp := replayed.plans
	if len(rp) != 1 || !rp[0].Done || rp[0].Result.Moved != 3 {
		t.Fatalf("replayed plans = %+v", rp)
	}
}

func TestPlanCommandValidation(t *testing.T) {
	c := NewCore(Config{Hosts: 3}, nil)
	apply := func(args *PlanArgs) error {
		return c.Apply(Command{Seq: c.applied + 1, At: c.Now(), Kind: CmdPlan, Plan: args})
	}
	if err := apply(nil); !errs.Is(err, CodeBadRequest) {
		t.Fatalf("nil args: err = %v, want %s", err, CodeBadRequest)
	}
	bogus := 99
	if err := apply(&PlanArgs{Name: "p", Groups: []PlanGroup{{FromHost: &bogus}}}); !errs.Is(err, CodeNotFound) {
		t.Fatalf("bogus host: err = %v, want %s", err, CodeNotFound)
	}
	if err := apply(&PlanArgs{Name: "p", Groups: []PlanGroup{{FromHost: &[]int{0}[0], Mode: "tepid"}}}); !errs.Is(err, CodeBadRequest) {
		t.Fatalf("bad mode: err = %v, want %s", err, CodeBadRequest)
	}
	// Each failed command still landed in the history (journal contract).
	if c.applied != 3 || c.failed != 3 {
		t.Fatalf("applied=%d failed=%d, want 3/3", c.applied, c.failed)
	}
}

// TestReplayAbortsOnUnknownCommand pins the future-proofing contract: a
// journal written by a newer daemon, containing a command kind this build
// does not know, must abort replay with the structured code — never
// silently skip the command and desynchronize everything after it.
func TestReplayAbortsOnUnknownCommand(t *testing.T) {
	cfg := Config{Hosts: 3}
	var buf bytes.Buffer
	jw, err := NewJournalWriter(&buf, cfg)
	if err != nil {
		t.Fatalf("journal header: %v", err)
	}
	append_ := func(cmd Command) {
		if err := jw.Append(cmd); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	append_(Command{Seq: 1, At: 0, Kind: CmdAdvance, Advance: time.Second})
	append_(Command{Seq: 2, At: time.Second, Kind: CommandKind("quantum-entangle")})
	append_(Command{Seq: 3, At: time.Second, Kind: CmdAdvance, Advance: time.Second})

	_, err = ReplayJournal(bytes.NewReader(buf.Bytes()))
	if !errs.Is(err, CodeUnknownCommand) {
		t.Fatalf("replay of future journal: err = %v, want %s", err, CodeUnknownCommand)
	}
	// The live path reports the same structured code (and maps to 400).
	c := NewCore(cfg, nil)
	aerr := c.Apply(Command{Seq: 1, At: 0, Kind: CommandKind("quantum-entangle")})
	if !errs.Is(aerr, CodeUnknownCommand) {
		t.Fatalf("live apply: err = %v, want %s", aerr, CodeUnknownCommand)
	}
	if got := httpStatus(errs.CodeOf(aerr)); got != 400 {
		t.Fatalf("httpStatus = %d, want 400", got)
	}
}

// TestJournalTornPlanCommand: the daemon died mid-append of a plan
// command. The torn tail is dropped and the surviving prefix replays —
// but only because it is the *final* line; the same damage mid-stream is
// corruption.
func TestJournalTornPlanCommand(t *testing.T) {
	cfg := Config{Hosts: 4}
	buf, _ := recordPlanSession(t, cfg)
	whole, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read intact journal: %v", err)
	}

	// Half a plan command: the JSON cuts off inside the groups array.
	tornLine := `{"seq":99,"at":302000000000,"kind":"plan","plan":{"name":"evac-h2","groups":[{"from_host":2,"mo`
	torn := append(append([]byte(nil), buf.Bytes()...), []byte(tornLine)...)
	data, err := ReadJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("read torn journal: %v", err)
	}
	if !data.Torn {
		t.Fatal("torn plan command not reported")
	}
	if len(data.Commands) != len(whole.Commands) {
		t.Fatalf("torn read kept %d commands, want %d", len(data.Commands), len(whole.Commands))
	}
	replayed, err := Replay(data.Config, data.Commands)
	if err != nil {
		t.Fatalf("replay after torn plan command: %v", err)
	}
	if plans := replayed.plans; len(plans) != 1 {
		t.Fatalf("replayed plans = %d, want 1 (torn plan dropped)", len(plans))
	}

	// The same torn line mid-stream refuses to load.
	lines := strings.Split(strings.TrimSuffix(string(buf.Bytes()), "\n"), "\n")
	corrupt := append([]string(nil), lines[:2]...)
	corrupt = append(corrupt, tornLine)
	corrupt = append(corrupt, lines[2:]...)
	_, err = ReadJournal(strings.NewReader(strings.Join(corrupt, "\n") + "\n"))
	if !errs.Is(err, CodeJournal) {
		t.Fatalf("mid-stream torn plan: err = %v, want %s", err, CodeJournal)
	}
}
