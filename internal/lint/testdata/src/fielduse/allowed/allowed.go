package lintfixture // want `lint\.Config\.FieldAllow entry .*Ledger\.total excuses no field; remove it`

// Ledger keeps a test oracle, excused field by field, and a total whose
// entry excuses nothing because the total is read.
type Ledger struct {
	oracle int
	total  int
}

// Trace is excused as a whole.
type Trace struct{ at, n int }

func (l *Ledger) Add(n int) int {
	l.oracle += n
	l.total += n
	return l.total
}

func (t *Trace) Mark(n int) { t.at, t.n = n, n }
