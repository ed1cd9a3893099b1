package gs

// decisionPage is the number of entries one page of the decision log holds
// (64 KiB of Decisions): small enough that the last, part-filled page of a
// long log wastes little, large enough that a 30,000-decision storm is a few
// dozen allocations.
const decisionPage = 1024

// decisionLog is the fleet's append-only decision record. It is stored in
// pages so that a long log never copies itself — a flat slice grown by
// append passes through capacities that sum to five times the final one —
// and it can be walked and fingerprinted in place, so the determinism pin
// of a long run needs no flat copy.
//
// Page 0 grows by append like a plain slice, so the short logs of serve,
// chaos and the small harness scenarios allocate exactly what a slice
// would; every later page is allocated full. Pages survive reset.
type decisionLog struct {
	first []Decision   // page 0, full at decisionPage entries
	more  [][]Decision // pages 1.., each of capacity decisionPage
	used  int          // the page being filled; pages 0..used hold the log

	// The running fingerprint: fp covers the first folded entries, and
	// fingerprint() extends it over what was logged since. Folding on demand
	// rather than in add keeps a failed decision's Error() text — a few
	// allocations — off the path of callers that never ask.
	fp     uint64
	folded int
}

// page returns page p, 0 <= p <= used.
func (l *decisionLog) page(p int) []Decision {
	if p == 0 {
		return l.first
	}
	return l.more[p-1]
}

func (l *decisionLog) add(d Decision) {
	if len(l.page(l.used)) == decisionPage {
		if l.used == len(l.more) {
			l.more = append(l.more, make([]Decision, 0, decisionPage))
		}
		l.used++
	}
	if l.used == 0 {
		l.first = append(l.first, d)
	} else {
		l.more[l.used-1] = append(l.more[l.used-1], d)
	}
}

// each calls fn on every entry in the order logged.
func (l *decisionLog) each(fn func(Decision)) {
	for p := 0; p <= l.used; p++ {
		for _, d := range l.page(p) {
			fn(d)
		}
	}
}

// flat returns the log as one slice: page 0 itself while that is the whole
// log, a copy once it is not.
func (l *decisionLog) flat() []Decision {
	if l.used == 0 {
		return l.first
	}
	out := make([]Decision, 0, l.used*decisionPage+len(l.more[l.used-1]))
	for p := 0; p <= l.used; p++ {
		out = append(out, l.page(p)...)
	}
	return out
}

// fingerprint returns DecisionFingerprint(flat()) without the copy, folding
// in only the entries logged since the last call.
func (l *decisionLog) fingerprint() uint64 {
	if l.folded == 0 {
		l.fp = foldSeed
	}
	for p := l.folded / decisionPage; p <= l.used; p++ {
		page := l.page(p)
		for i := l.folded - p*decisionPage; i < len(page); i++ {
			l.fp = foldDecision(l.fp, &page[i])
			l.folded++
		}
	}
	return l.fp
}

// The fold's starting value (the fraction of π) and its multiplier (2^64/φ,
// odd, so multiplying by it is a bijection on 64-bit words).
const (
	foldSeed = 0x243f6a8885a308d3
	foldMul  = 0x9e3779b97f4a7c15
)

// DecisionFingerprint folds a decision log into one 64-bit value — the
// cross-run and cross-parallelism determinism pin for fleet sweeps.
func DecisionFingerprint(decs []Decision) uint64 {
	h := uint64(foldSeed)
	for i := range decs {
		h = foldDecision(h, &decs[i])
	}
	return h
}

// foldDecision extends fingerprint h by one decision, a word per field.
func foldDecision(h uint64, d *Decision) uint64 {
	h = foldWord(h, uint64(d.At))
	h = foldWord(h, uint64(int64(d.Host)))
	h = foldWord(h, uint64(int64(d.Dest)))
	h = foldWord(h, uint64(int64(d.Moved)))
	h = foldString(h, string(d.Reason))
	if d.Err != nil {
		h = foldString(h, d.Err.Error())
	}
	return h
}

// foldWord extends h by the word v: one multiply, then an xor-shift that
// carries the product's high bits down. For a fixed h, distinct words give
// distinct results.
func foldWord(h, v uint64) uint64 {
	h = (h ^ v) * foldMul
	return h ^ h>>32
}

// foldString extends h by the length of s, then by s eight bytes per word,
// the last word zero-padded: the length makes the padding, and where one
// string ends and the next begins, unambiguous.
func foldString(h uint64, s string) uint64 {
	h = foldWord(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = foldWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = foldWord(h, w)
	}
	return h
}
