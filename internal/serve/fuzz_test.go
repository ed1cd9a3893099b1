package serve

import (
	"bytes"
	"testing"

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
