package serve

import (
	"bufio"
	"encoding/json"
	"io"

	"pvmigrate/internal/errs"
)

// journalVersion is the on-disk format version in the header line.
const journalVersion = 1

// journalHeader is the first line of every journal: enough to rebuild the
// identical cluster.
type journalHeader struct {
	Version int    `json:"version"`
	Config  Config `json:"config"`
}

// syncer is the optional fsync surface of a journal sink (*os.File has it).
type syncer interface{ Sync() error }

// JournalWriter appends commands to a journal stream, one JSON line each.
// The daemon writes ahead: a command is journaled before it executes, so a
// crash can lose an execution but never a record — replaying the journal
// always reaches at least the state the daemon last externalized. When the
// sink can fsync (implements Sync() error, as *os.File does) every line is
// synced before Append returns, so the guarantee holds across host crashes
// and SIGKILL; for a plain buffered sink it holds only for clean process
// exit.
type JournalWriter struct {
	w io.Writer
	s syncer // non-nil when w can fsync
}

// NewJournalWriter writes the header line and returns the writer.
func NewJournalWriter(w io.Writer, cfg Config) (*JournalWriter, error) {
	jw := &JournalWriter{w: w}
	jw.s, _ = w.(syncer)
	if err := jw.writeLine(journalHeader{Version: journalVersion, Config: cfg.withDefaults()}); err != nil {
		return nil, err
	}
	return jw, nil
}

// Append journals one command.
func (jw *JournalWriter) Append(cmd Command) error {
	return jw.writeLine(cmd)
}

func (jw *JournalWriter) writeLine(v any) error {
	l, err := encodeLine(v)
	defer l.free()
	if err != nil {
		return errs.New(CodeJournal, "encode journal line", err)
	}
	if _, err := jw.w.Write(l.buf.Bytes()); err != nil {
		return errs.New(CodeJournal, "append journal line", err)
	}
	if jw.s != nil {
		if err := jw.s.Sync(); err != nil {
			return errs.New(CodeJournal, "sync journal line", err)
		}
	}
	return nil
}

// JournalData is a parsed journal.
type JournalData struct {
	Config   Config
	Commands []Command
	// Torn reports that the final line was unparseable — the daemon died
	// mid-append — and was dropped. Anything unparseable before the final
	// line is corruption and errors instead.
	Torn bool
}

// ReadJournal parses a journal stream. It tolerates exactly one kind of
// damage: a torn final line (reported via Torn, dropped). A malformed line
// anywhere else, a bad header (an impossible count in its config included),
// or a sequence gap refuses to load — a journal that replays at all must
// replay faithfully.
func ReadJournal(r io.Reader) (*JournalData, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, errs.New(CodeJournal, "read journal", err)
	}
	if len(lines) == 0 {
		return nil, errs.New(CodeJournal, "journal is empty: no header line", nil)
	}
	var hdr journalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return nil, errs.New(CodeJournal, "parse journal header", err)
	}
	if hdr.Version != journalVersion {
		return nil, errs.Newf(CodeJournal, "journal version %d, want %d",
			hdr.Version, journalVersion)
	}
	if err := hdr.Config.validate(); err != nil {
		return nil, errs.New(CodeJournal, "journal header", err)
	}
	data := &JournalData{Config: hdr.Config}
	for i, line := range lines[1:] {
		var cmd Command
		if err := json.Unmarshal([]byte(line), &cmd); err != nil {
			if i == len(lines)-2 {
				data.Torn = true
				break
			}
			return nil, errs.Newf(CodeJournal, "journal line %d is malformed mid-stream", i+2).
				AddContext("cause", err.Error())
		}
		if want := i + 1; cmd.Seq != want {
			return nil, errs.Newf(CodeJournal, "journal line %d has seq %d, want %d",
				i+2, cmd.Seq, want)
		}
		data.Commands = append(data.Commands, cmd)
	}
	return data, nil
}
