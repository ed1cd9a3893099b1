package adm

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pvmigrate/internal/errs"
)

// Shard is the exemplars one worker holds, by position, each with ADMopt's
// per-iteration processed flag (paper §4.3.1): because exemplars reshuffle
// during redistribution, a slave must know which of those it holds were
// already processed this iteration, here or by the slave that shipped them,
// so none is processed twice. The paper pays "a conditional statement and an
// increment of an array value" per exemplar for this, which the cost model
// charges as part of ADM's measured overhead.
//
// The ids are runs: a shard starts as one contiguous range, and a fragment
// leaves from the tail and is appended at the receiver's tail, so a shard
// is a handful of ranges, not a list of ids. The flags are one bit per
// position, so they travel with the data: a fragment takes its bits with it
// and they are ORed in, a word at a time, at the receiver's tail. A chunk of
// unprocessed exemplars is found and marked a word at a time.
type Shard struct {
	// runs cover positions [0, Len()) in order, each starting where the
	// previous one ends; none is empty, and two runs whose ids continue one
	// another are one run.
	runs []idRun
	// done holds position i's flag in bit i&63 of word i>>6; there is one
	// word per started 64 positions, and bits at and past Len() are zero.
	done []uint64
}

// idRun says that positions [at, at+n) hold exemplar ids [lo, lo+n).
type idRun struct{ at, lo, n int }

// NewShard builds a shard covering ids [lo, hi), none processed.
func NewShard(lo, hi int) *Shard {
	s := &Shard{done: make([]uint64, (hi-lo+63)/64)}
	if hi > lo {
		s.appendRun(lo, hi-lo)
	}
	return s
}

// appendRun puts ids [lo, lo+n) at the shard's tail, as an extension of the
// last run when they continue it.
func (s *Shard) appendRun(lo, n int) {
	if k := len(s.runs) - 1; k >= 0 && s.runs[k].lo+s.runs[k].n == lo {
		s.runs[k].n += n
		return
	}
	s.runs = append(s.runs, idRun{s.Len(), lo, n})
}

// Len returns the number of exemplars in the shard.
func (s *Shard) Len() int {
	if len(s.runs) == 0 {
		return 0
	}
	r := s.runs[len(s.runs)-1]
	return r.at + r.n
}

// ID returns the global id of the exemplar at position i.
func (s *Shard) ID(i int) int {
	k, ok := slices.BinarySearchFunc(s.runs, i, func(r idRun, i int) int {
		switch {
		case r.at+r.n <= i:
			return -1
		case r.at > i:
			return 1
		}
		return 0
	})
	if !ok {
		panic(fmt.Sprintf("adm: position %d outside a shard of %d", i, s.Len()))
	}
	return s.runs[k].lo + i - s.runs[k].at
}

// Processed reports whether the exemplar at position i was processed this
// iteration.
func (s *Shard) Processed(i int) bool { return s.done[i>>6]&(1<<(i&63)) != 0 }

// Export writes each exemplar's global id and processed flag (1 or 0), in
// position order, into ids and flags, which must both be Len() long: a
// fragment as it travels between slaves.
func (s *Shard) Export(ids []float64, flags []byte) {
	for _, r := range s.runs {
		for j := range r.n {
			ids[r.at+j] = float64(r.lo + j)
		}
	}
	for i := range flags {
		flags[i] = byte(s.done[i>>6] >> (i & 63) & 1)
	}
}

// NewFragment builds the shard Export wrote: ids in order, position i
// processed where flags[i] == 1. An id that is not a whole number of
// magnitude below 2^53 is an error; whether the ids belong to the job, and to
// no other shard, is Absorb's to check.
func NewFragment(ids []float64, flags []byte) (*Shard, error) {
	if len(flags) != len(ids) {
		return nil, errs.Newf(CodeBadFragment, "fragment of %d ids carries %d processed flags", len(ids), len(flags))
	}
	s := &Shard{done: make([]uint64, (len(ids)+63)/64)}
	for i, v := range ids {
		if !(math.Abs(v) < 1<<53) || v != math.Trunc(v) {
			return nil, errs.Newf(CodeBadFragment, "fragment carries %v, which is no exemplar id", v)
		}
		s.appendRun(int(v), 1)
		if flags[i] == 1 {
			s.done[i>>6] |= 1 << (i & 63)
		}
	}
	return s, nil
}

// NextChunk scans forward from position from for up to max unprocessed
// exemplars. It returns how many it found, n, and the position just past the
// last of them, end — or Len() when fewer than max remain. Every position in
// [from, end) is either one of the n or already processed.
func (s *Shard) NextChunk(from, max int) (end, n int) {
	size := s.Len()
	end = from
	for end < size && n < max {
		span := min(64-end&63, size-end)
		free := ^s.done[end>>6] >> (end & 63) & (uint64(1)<<span - 1)
		c := bits.OnesCount64(free)
		if n+c < max {
			n += c
			end += span
			continue
		}
		// The chunk closes in this word, at its (max-n)th unprocessed bit.
		for k := max - n; k > 1; k-- {
			free &= free - 1
		}
		return end + bits.TrailingZeros64(free) + 1, max
	}
	return end, n
}

// MarkRange flags every position in [from, end) processed.
func (s *Shard) MarkRange(from, end int) {
	for from < end {
		b := from & 63
		span := min(64-b, end-from)
		s.done[from>>6] |= (uint64(1)<<span - 1) << b
		from += span
	}
}

// Reset clears the flags at an iteration boundary.
func (s *Shard) Reset() { clear(s.done) }

// TakeFragment removes up to n exemplars from the shard's tail (order need
// not be preserved) and returns them, with their flags, as a new shard. At
// most one run is split, and the flags are copied a word at a time.
func (s *Shard) TakeFragment(n int) *Shard {
	size := s.Len()
	n = max(min(n, size), 0)
	cut := size - n
	// The runs from k on hold the tail; runs[k] may start before the cut.
	k := len(s.runs)
	for k > 0 && s.runs[k-1].at+s.runs[k-1].n > cut {
		k--
	}
	frag := &Shard{runs: make([]idRun, 0, len(s.runs)-k), done: make([]uint64, (n+63)/64)}
	for _, r := range s.runs[k:] {
		skip := max(cut-r.at, 0)
		frag.appendRun(r.lo+skip, r.n-skip)
	}
	if k < len(s.runs) && s.runs[k].at < cut {
		s.runs[k].n = cut - s.runs[k].at
		k++
	}
	s.runs = s.runs[:k]
	// Word w of the fragment is the shard's bits [cut+64w, cut+64w+64).
	base, off := cut>>6, uint(cut&63)
	for w := range frag.done {
		v := s.done[base+w] >> off
		if off != 0 && base+w+1 < len(s.done) {
			v |= s.done[base+w+1] << (64 - off)
		}
		frag.done[w] = v
	}
	if n&63 != 0 {
		frag.done[len(frag.done)-1] &= 1<<(n&63) - 1
	}
	s.done = s.done[:(cut+63)/64]
	if cut&63 != 0 {
		s.done[len(s.done)-1] &= 1<<(cut&63) - 1
	}
	return frag
}

// Absorb appends a received fragment, flags and all, after checking that
// every id it carries is one of the job's total exemplars, [0, total), and
// not one this shard (or the fragment) already holds: a duplicate would be
// held, and processed, twice. The shard's own ids must lie in [0, total).
// The checks sort the runs of both by id, not the ids.
func (s *Shard) Absorb(frag *Shard, total int) error {
	for _, r := range frag.runs {
		if r.lo < 0 || r.lo+r.n > total {
			return errs.Newf(CodeBadFragment, "exemplars [%d, %d) outside [0, %d)", r.lo, r.lo+r.n, total)
		}
	}
	byID := slices.Concat(s.runs, frag.runs)
	slices.SortFunc(byID, func(a, b idRun) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(byID); i++ {
		if prev := byID[i-1]; byID[i].lo < prev.lo+prev.n {
			return errs.Newf(CodeBadFragment, "exemplar %d already held", byID[i].lo)
		}
	}
	at := s.Len()
	for _, r := range frag.runs {
		s.appendRun(r.lo, r.n)
	}
	// Fragment word w lands at position at+64w, straddling two words
	// unless at is word-aligned; bits past the fragment's end are zero.
	s.done = append(s.done, make([]uint64, (s.Len()+63)/64-len(s.done))...)
	base, off := at>>6, uint(at&63)
	for w, v := range frag.done {
		s.done[base+w] |= v << off
		if off != 0 && base+w+1 < len(s.done) {
			s.done[base+w+1] |= v >> (64 - off)
		}
	}
	return nil
}
