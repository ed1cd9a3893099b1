package serve

import (
	"io"

	"pvmigrate/internal/errs"
)

// Replay re-executes a command log headlessly against a fresh cluster and
// returns the resulting Core, already closed, for inspection (fingerprint,
// trace, jobs, history): Replay created its kernel, so Replay closes it, on
// every return path. The closed Core applies no further command.
// Command-level failures are re-executed faithfully and ignored — the live
// session journaled them too, and their errors are deterministic — but two
// errors abort: CodeReplay (clock mismatch: the log does not describe this
// cluster) and CodeUnknownCommand (the journal was written by a newer
// daemon whose command this build cannot execute; skipping it would
// silently desynchronize every state and fingerprint after it). A config
// with an impossible count is refused before any cluster is built.
func Replay(cfg Config, cmds []Command) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := NewCore(cfg, nil)
	defer c.Close()
	for _, cmd := range cmds {
		err := c.Apply(cmd)
		if err != nil && (errs.Is(err, CodeReplay) || errs.Is(err, CodeUnknownCommand)) {
			return c, err
		}
	}
	return c, nil
}

// ReplayJournal parses a journal stream and replays it.
func ReplayJournal(r io.Reader) (*Core, error) {
	data, err := ReadJournal(r)
	if err != nil {
		return nil, err
	}
	return Replay(data.Config, data.Commands)
}
