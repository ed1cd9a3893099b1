package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pvmigrate/internal/errs"
)

// FuzzReadJournal feeds the journal reader arbitrary bytes: it must answer
// with a serve.journal error or a JournalData whose header config describes
// a buildable cluster and whose commands are densely numbered — never a
// panic, and never a count that Replay would size an allocation by
// unchecked. It parses only: no input can buy a simulation. The committed
// corpus (testdata/fuzz/FuzzReadJournal) holds the golden session's journal,
// a torn last line, a sequence gap and a header with "hosts":-3.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		data, err := ReadJournal(bytes.NewReader(b))
		if err != nil {
			if !errs.Is(err, CodeJournal) {
				t.Fatalf("refusal is not a %s error: %v", CodeJournal, err)
			}
			return
		}
		if err := data.Config.validate(); err != nil {
			t.Fatalf("accepted a header Replay would refuse: %v", err)
		}
		for i, cmd := range data.Commands {
			if cmd.Seq != i+1 {
				t.Fatalf("accepted command %d with seq %d", i, cmd.Seq)
			}
		}
	})
}

// FuzzApplyCommand applies one journal line — a Command as JSON — to a fresh
// 4-host Core already running an opt job, as the live daemon would (stamped
// with the next seq at the core's clock). Apply must answer nil or an
// errs-coded error and never panic, and the same line applied to two
// identical cores must leave equal fingerprints. Seeds: the golden session's
// lines, the three malformed load jobs of TestMalformedLoadJobIsABadRequest,
// and plan commands (the plan-spec parser's only fuzzing). boundCommand caps
// what one line may buy, so an exec costs milliseconds.
func FuzzApplyCommand(f *testing.F) {
	golden := goldenSession(f)
	for _, cmd := range golden.History() {
		line, err := json.Marshal(cmd)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	golden.Close()
	for _, line := range []string{
		`{"kind":"submit","job":{"kind":"load","workers":-1,"rate_per_sec":10,"requests":20}}`,
		`{"kind":"submit","job":{"kind":"load","worker_hosts":[],"rate_per_sec":10,"requests":20}}`,
		`{"kind":"submit","job":{"kind":"load","req_bytes":-1,"rate_per_sec":10,"requests":20}}`,
		`{"kind":"plan","plan":{"name":"evac","groups":[{"from_host":1,"mode":"cold"}]}}`,
		`{"kind":"plan","plan":{"name":"warm","groups":[{"vps":[262145],"mode":"warm","dest":2,"concurrency":2}]}}`,
		`{"kind":"plan","plan":{"name":"pick","groups":[{"from_host":2,"placement":"least-loaded"},{"from_host":3,"mode":"bogus"}]}}`,
		`{"kind":"plan","plan":{"name":"","groups":[]}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var cmd Command
		if json.Unmarshal(line, &cmd) != nil {
			return
		}
		boundCommand(&cmd)
		var prints [2]uint64
		for i := range prints {
			c := fuzzCore(t)
			cmd.Seq, cmd.At = c.applied+1, c.Now()
			if err := c.Apply(cmd); err != nil {
				var coded *errs.Error
				if !errors.As(err, &coded) || coded.Code == "" {
					t.Fatalf("%s: uncoded error %v", line, err)
				}
			}
			prints[i] = c.Fingerprint()
			c.Close()
		}
		if prints[0] != prints[1] {
			t.Fatalf("%s: two identical cores diverged: %#x vs %#x", line, prints[0], prints[1])
		}
	})
}

// fuzzCore is the core every FuzzApplyCommand line lands on: four hosts and
// an opt job too long to finish inside one bounded advance.
func fuzzCore(t testing.TB) *Core {
	c := NewCore(Config{Hosts: 4}, nil)
	if err := apply(t, c, CmdSubmit, func(cmd *Command) {
		cmd.Job = &JobSpec{Kind: JobOpt, Iterations: 60}
	}); err != nil {
		t.Fatalf("opt submit: %v", err)
	}
	return c
}

// boundCommand caps the simulation one fuzzed line can ask for: virtual time
// advanced, and the size and length of a load job's arrival schedule.
func boundCommand(cmd *Command) {
	cmd.Advance = min(cmd.Advance, 2*time.Second)
	j := cmd.Job
	if j == nil {
		return
	}
	j.Workers = min(j.Workers, 4)
	j.WorkerHosts = j.WorkerHosts[:min(len(j.WorkerHosts), 8)]
	j.RatePerSec = min(j.RatePerSec, 1000)
	j.HorizonMs = min(j.HorizonMs, 60_000)
	j.Requests = min(j.Requests, 50)
	j.Diurnal = j.Diurnal[:min(len(j.Diurnal), 8)]
	for i := range j.Diurnal {
		j.Diurnal[i] = min(j.Diurnal[i], 10)
	}
	j.ReqBytes = min(j.ReqBytes, 1<<20)
}
