package adm

import "fmt"

// Tracker is the per-iteration processed-exemplar flag array of ADMopt
// (paper §4.3.1): because exemplars reshuffle during redistribution, each
// slave tracks which exemplars it has already processed this iteration so
// none is processed twice — at the cost of "a conditional statement and an
// increment of an array value" in the inner loop, part of ADM's measured
// overhead.
//
// Exemplars are identified by stable global ids, which index the array
// directly. The array grows on demand for ids past its end and is cleared,
// never reallocated, at an iteration boundary.
type Tracker struct {
	processed []bool
	nDone     int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{}
}

// MarkProcessed records that exemplar id was processed this iteration. It
// reports false if the exemplar had already been processed (the caller must
// skip it — processing twice is the bug the tracker exists to prevent).
func (t *Tracker) MarkProcessed(id int) bool {
	if uint(id) >= uint(len(t.processed)) {
		t.grow(id)
	}
	if t.processed[id] {
		return false
	}
	t.processed[id] = true
	t.nDone++
	return true
}

// grow extends the array to cover id, at least doubling so that a run of
// ascending ids costs amortized O(1) each.
func (t *Tracker) grow(id int) {
	if id < 0 {
		panic("adm: negative exemplar id")
	}
	n := 2 * len(t.processed)
	if n <= id {
		n = id + 1
	}
	// lint:alloc on-demand growth to the largest id seen; later iterations reuse the array
	grown := make([]bool, n)
	copy(grown, t.processed)
	t.processed = grown
}

// Processed reports whether exemplar id was processed this iteration.
func (t *Tracker) Processed(id int) bool {
	if uint(id) >= uint(len(t.processed)) {
		if id < 0 {
			panic("adm: negative exemplar id")
		}
		return false
	}
	return t.processed[id]
}

// Done returns how many exemplars have been processed this iteration.
func (t *Tracker) Done() int { return t.nDone }

// Reset clears the flags at an iteration boundary.
func (t *Tracker) Reset() {
	clear(t.processed)
	t.nDone = 0
}

// Shard is a contiguous set of exemplar ids held by one worker. Data moves
// between workers as Shard fragments.
type Shard struct {
	IDs []int
	// ProcessedFlags travel with the data so a receiving slave does not
	// reprocess exemplars the sender already handled this iteration.
	ProcessedFlags []bool
}

// NewShard builds a shard covering ids [lo, hi).
func NewShard(lo, hi int) *Shard {
	s := &Shard{IDs: make([]int, 0, hi-lo), ProcessedFlags: make([]bool, 0, hi-lo)}
	for id := lo; id < hi; id++ {
		s.IDs = append(s.IDs, id)
		s.ProcessedFlags = append(s.ProcessedFlags, false)
	}
	return s
}

// Len returns the number of exemplars in the shard.
func (s *Shard) Len() int { return len(s.IDs) }

// TakeFragment removes up to n exemplars from the shard (from the tail —
// order need not be preserved) and returns them as a new shard.
func (s *Shard) TakeFragment(n int) *Shard {
	if n > len(s.IDs) {
		n = len(s.IDs)
	}
	cut := len(s.IDs) - n
	frag := &Shard{
		IDs:            append([]int(nil), s.IDs[cut:]...),
		ProcessedFlags: append([]bool(nil), s.ProcessedFlags[cut:]...),
	}
	s.IDs = s.IDs[:cut]
	s.ProcessedFlags = s.ProcessedFlags[:cut]
	return frag
}

// Absorb merges a received fragment into the shard.
func (s *Shard) Absorb(frag *Shard) {
	s.IDs = append(s.IDs, frag.IDs...)
	s.ProcessedFlags = append(s.ProcessedFlags, frag.ProcessedFlags...)
}

// SyncFlags copies the tracker's per-iteration state into the shard's
// travel flags (call before shipping a fragment).
func (s *Shard) SyncFlags(t *Tracker) {
	for i, id := range s.IDs {
		s.ProcessedFlags[i] = t.Processed(id)
	}
}

// SeedTracker marks the shard's already-processed exemplars in a receiving
// tracker (call after absorbing a fragment).
func (s *Shard) SeedTracker(t *Tracker) {
	for i, id := range s.IDs {
		if s.ProcessedFlags[i] {
			t.MarkProcessed(id)
		}
	}
}

// CheckDisjoint verifies that the given shards partition exactly the ids
// [0, total): no exemplar lost, none duplicated. This is the ADM
// correctness invariant the property tests exercise.
func CheckDisjoint(total int, shards ...*Shard) error {
	seen := make([]bool, total)
	n := 0
	for si, s := range shards {
		for _, id := range s.IDs {
			if id < 0 || id >= total {
				return fmt.Errorf("adm: shard %d has out-of-range exemplar %d", si, id)
			}
			if seen[id] {
				return fmt.Errorf("adm: exemplar %d duplicated (shard %d)", id, si)
			}
			seen[id] = true
			n++
		}
	}
	if n != total {
		return fmt.Errorf("adm: %d of %d exemplars present", n, total)
	}
	return nil
}
