package adm

import (
	"fmt"
	"math/bits"
)

// Shard is the exemplars one worker holds, by position, each with ADMopt's
// per-iteration processed flag (paper §4.3.1): because exemplars reshuffle
// during redistribution, a slave must know which of those it holds were
// already processed this iteration, here or by the slave that shipped them,
// so none is processed twice. The paper pays "a conditional statement and an
// increment of an array value" per exemplar for this, which the cost model
// charges as part of ADM's measured overhead.
//
// The flags are one bit per position, so they travel with the data: a
// fragment leaves from the tail with its bits and is appended, bits and all,
// at the receiver's tail. A chunk of unprocessed exemplars is found and
// marked a word at a time.
type Shard struct {
	ids []int
	// done holds position i's flag in bit i&63 of word i>>6; there is one
	// word per started 64 positions, and bits at and past Len() are zero.
	done []uint64
}

// NewShard builds a shard covering ids [lo, hi), none processed.
func NewShard(lo, hi int) *Shard {
	s := &Shard{ids: make([]int, 0, hi-lo), done: make([]uint64, (hi-lo+63)/64)}
	for id := lo; id < hi; id++ {
		s.ids = append(s.ids, id)
	}
	return s
}

// Len returns the number of exemplars in the shard.
func (s *Shard) Len() int { return len(s.ids) }

// ID returns the global id of the exemplar at position i.
func (s *Shard) ID(i int) int { return s.ids[i] }

// Processed reports whether the exemplar at position i was processed this
// iteration.
func (s *Shard) Processed(i int) bool { return s.done[i>>6]&(1<<(i&63)) != 0 }

// NewFragment builds a shard of ids, in order, with position i processed
// where flags[i] == 1 — a fragment as it travels between slaves. flags must
// be as long as ids; the shard keeps ids.
func NewFragment(ids []int, flags []byte) *Shard {
	s := &Shard{ids: ids, done: make([]uint64, (len(ids)+63)/64)}
	for i := range ids {
		if flags[i] == 1 {
			s.mark(i)
		}
	}
	return s
}

func (s *Shard) mark(i int) { s.done[i>>6] |= 1 << (i & 63) }

// NextChunk scans forward from position from for up to max unprocessed
// exemplars. It returns how many it found, n, and the position just past the
// last of them, end — or Len() when fewer than max remain. Every position in
// [from, end) is either one of the n or already processed.
func (s *Shard) NextChunk(from, max int) (end, n int) {
	end = from
	for end < len(s.ids) && n < max {
		span := min(64-end&63, len(s.ids)-end)
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
// not be preserved) and returns them, with their flags, as a new shard.
func (s *Shard) TakeFragment(n int) *Shard {
	n = min(n, len(s.ids))
	cut := len(s.ids) - n
	frag := &Shard{ids: append([]int(nil), s.ids[cut:]...), done: make([]uint64, (n+63)/64)}
	for i := range frag.ids {
		if s.Processed(cut + i) {
			frag.mark(i)
		}
	}
	s.ids = s.ids[:cut]
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
func (s *Shard) Absorb(frag *Shard, total int) error {
	seen := make([]uint64, (total+63)/64)
	for _, id := range s.ids {
		seen[id>>6] |= 1 << (id & 63)
	}
	for _, id := range frag.ids {
		if uint(id) >= uint(total) {
			return fmt.Errorf("adm: exemplar %d outside [0, %d)", id, total)
		}
		if seen[id>>6]&(1<<(id&63)) != 0 {
			return fmt.Errorf("adm: exemplar %d already held", id)
		}
		seen[id>>6] |= 1 << (id & 63)
	}
	at := len(s.ids)
	s.ids = append(s.ids, frag.ids...)
	s.done = append(s.done, make([]uint64, (len(s.ids)+63)/64-len(s.done))...)
	for i := range frag.ids {
		if frag.Processed(i) {
			s.mark(at + i)
		}
	}
	return nil
}
