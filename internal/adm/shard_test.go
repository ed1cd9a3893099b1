package adm

import (
	"bytes"
	"testing"

	"pvmigrate/internal/sim"
)

// boolModel is the reference a Shard is held to: ids and processed flags as
// plain slices, and the chunk search as the one-position-at-a-time loop.
type boolModel struct {
	ids  []int
	done []bool
}

func (m *boolModel) nextChunk(from, max int) (end, n int) {
	for end = from; end < len(m.ids) && n < max; end++ {
		if !m.done[end] {
			n++
		}
	}
	return end, n
}

func (m *boolModel) take(n int) boolModel {
	n = min(n, len(m.ids))
	cut := len(m.ids) - n
	frag := boolModel{append([]int(nil), m.ids[cut:]...), append([]bool(nil), m.done[cut:]...)}
	m.ids, m.done = m.ids[:cut], m.done[:cut]
	return frag
}

// agree fails unless s holds exactly the model's ids and flags, with its
// words sized to its length and no bit set past its end.
func agree(t *testing.T, what string, s *Shard, m *boolModel) {
	t.Helper()
	if s.Len() != len(m.ids) {
		t.Fatalf("%s: Len = %d, model %d", what, s.Len(), len(m.ids))
	}
	for i := range m.ids {
		if s.ID(i) != m.ids[i] || s.Processed(i) != m.done[i] {
			t.Fatalf("%s: position %d = (%d, %v), model (%d, %v)", what, i, s.ID(i), s.Processed(i), m.ids[i], m.done[i])
		}
	}
	if len(s.done) != (s.Len()+63)/64 {
		t.Fatalf("%s: %d words for %d positions", what, len(s.done), s.Len())
	}
	if r := s.Len() & 63; r != 0 && s.done[len(s.done)-1]>>r != 0 {
		t.Fatalf("%s: bits set past Len %d: %#x", what, s.Len(), s.done[len(s.done)-1])
	}
}

// TestPropShardMatchesBoolModel drives two shards and their []bool models
// through the ADM slave's life — iterations walked chunk by chunk, fragments
// moved both ways mid-iteration, resets — plus chunk searches and marks at
// random positions, at lengths and chunk sizes on both sides of the 64-bit
// word boundaries. Every end, n, id and Processed answer must agree.
func TestPropShardMatchesBoolModel(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 130} {
		for _, chunk := range []int{1, 63, 64, 100} {
			for seed := uint64(1); seed <= 10; seed++ {
				rng := sim.NewRNG(seed*1000 + uint64(size*7+chunk))
				shards := [2]*Shard{NewShard(0, size), NewShard(size, 2*size)}
				models := [2]*boolModel{{}, {}}
				for i, s := range shards {
					for p := 0; p < s.Len(); p++ {
						models[i].ids = append(models[i].ids, s.ID(p))
						models[i].done = append(models[i].done, false)
					}
				}
				cursor := 0 // shard 0's iteration
				for op := 0; op < 300; op++ {
					a := rng.Intn(2)
					s, m := shards[a], models[a]
					switch rng.Intn(6) {
					case 0, 1: // shard 0's next chunk, as admSlave.iterate takes it
						s, m = shards[0], models[0]
						end, n := s.NextChunk(cursor, chunk)
						wantEnd, wantN := m.nextChunk(cursor, chunk)
						if end != wantEnd || n != wantN {
							t.Fatalf("size %d chunk %d seed %d op %d: NextChunk(%d, %d) = (%d, %d), model (%d, %d)",
								size, chunk, seed, op, cursor, chunk, end, n, wantEnd, wantN)
						}
						s.MarkRange(cursor, end)
						for i := cursor; i < end; i++ {
							m.done[i] = true
						}
						cursor = end
					case 2: // a search and a mark anywhere
						from := rng.Intn(s.Len() + 1)
						max := rng.Intn(2*chunk + 1)
						end, n := s.NextChunk(from, max)
						wantEnd, wantN := m.nextChunk(from, max)
						if end != wantEnd || n != wantN {
							t.Fatalf("size %d chunk %d seed %d op %d: NextChunk(%d, %d) = (%d, %d), model (%d, %d)",
								size, chunk, seed, op, from, max, end, n, wantEnd, wantN)
						}
						to := from + rng.Intn(s.Len()-from+1)
						s.MarkRange(from, to)
						for i := from; i < to; i++ {
							m.done[i] = true
						}
					case 3, 4: // a fragment from one shard to the other
						k := rng.Intn(chunk + 2)
						frag := s.TakeFragment(k)
						fm := m.take(k)
						agree(t, "fragment", frag, &fm)
						if err := shards[1-a].Absorb(frag, 2*size); err != nil {
							t.Fatalf("size %d chunk %d seed %d op %d: %v", size, chunk, seed, op, err)
						}
						other := models[1-a]
						other.ids = append(other.ids, fm.ids...)
						other.done = append(other.done, fm.done...)
						cursor = min(cursor, shards[0].Len())
					case 5:
						if rng.Intn(4) == 0 { // an iteration boundary
							s.Reset()
							clear(m.done)
							if a == 0 {
								cursor = 0
							}
						}
					}
					for i := range shards {
						agree(t, "shard", shards[i], models[i])
					}
				}
			}
		}
	}
}

// TestShardAbsorbRejectsForeignIDs: a fragment carrying an id outside the
// job's exemplars, one the receiver holds, or one twice is refused whole,
// and the receiver is left as it was.
func TestShardAbsorbRejectsForeignIDs(t *testing.T) {
	for name, ids := range map[string][]int{
		"negative":          {12, -1},
		"past the end":      {12, 20},
		"held":              {12, 5},
		"twice in the frag": {12, 13, 12},
	} {
		s := NewShard(0, 10)
		s.MarkRange(0, 3)
		frag := NewFragment(ids, bytes.Repeat([]byte{1}, len(ids)))
		if err := s.Absorb(frag, 20); err == nil {
			t.Errorf("%s: fragment %v absorbed", name, ids)
		}
		want := &boolModel{}
		for id := 0; id < 10; id++ {
			want.ids = append(want.ids, id)
			want.done = append(want.done, id < 3)
		}
		agree(t, name, s, want)
	}
}

// TestShardChunkPathZeroAlloc is the run-time face of the noalloc lint roots
// on the Shard: a whole iteration — chunk searches, flag reads, marks and the
// Reset — allocates nothing.
func TestShardChunkPathZeroAlloc(t *testing.T) {
	const n, chunk = 1050, 100
	s := NewShard(500, 500+n)
	allocs := testing.AllocsPerRun(100, func() {
		done := 0
		for from := 0; ; {
			end, k := s.NextChunk(from, chunk)
			if k == 0 {
				break
			}
			if s.Processed(from) {
				t.Fatalf("position %d processed before its chunk", from)
			}
			s.MarkRange(from, end)
			done += k
			from = end
		}
		if done != n {
			t.Fatalf("processed %d of %d", done, n)
		}
		s.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Shard iteration allocates %v per run, want 0", allocs)
	}
}
