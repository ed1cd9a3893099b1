package adm

import (
	"bytes"
	"runtime"
	"testing"

	"pvmigrate/internal/errs"
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
// words sized to its length and no bit set past its end, and its runs in
// their normal form: back to back from position 0, none empty, and no two
// neighbours whose ids continue one another.
func agree(t *testing.T, what string, s *Shard, m *boolModel) {
	t.Helper()
	at := 0
	for i, r := range s.runs {
		if r.at != at || r.n <= 0 || i > 0 && s.runs[i-1].lo+s.runs[i-1].n == r.lo {
			t.Fatalf("%s: run %d of %+v breaks the normal form", what, i, s.runs)
		}
		at += r.n
	}
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
// word boundaries. Every end, n, id and Processed answer must agree. The
// shards start as one range each or as the even and the odd ids, and some
// fragments travel as exported ids and flags, shuffled before they are
// rebuilt, so runs split and merge.
func TestPropShardMatchesBoolModel(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 130} {
		for _, chunk := range []int{1, 63, 64, 100} {
			for seed := uint64(1); seed <= 20; seed++ {
				rng := sim.NewRNG(seed*1000 + uint64(size*7+chunk))
				shards := [2]*Shard{NewShard(0, size), NewShard(size, 2*size)}
				if seed%2 == 0 {
					shards = [2]*Shard{interleaved(t, 0, size), interleaved(t, 1, size)}
				}
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
					switch rng.Intn(7) {
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
					case 5: // a fragment over the wire, its exemplars shuffled
						k := rng.Intn(chunk + 2)
						frag := s.TakeFragment(k)
						fm := m.take(k)
						ids := make([]float64, frag.Len())
						flags := make([]byte, frag.Len())
						frag.Export(ids, flags)
						for i := len(ids) - 1; i > 0; i-- {
							j := rng.Intn(i + 1)
							ids[i], ids[j] = ids[j], ids[i]
							flags[i], flags[j] = flags[j], flags[i]
							fm.ids[i], fm.ids[j] = fm.ids[j], fm.ids[i]
							fm.done[i], fm.done[j] = fm.done[j], fm.done[i]
						}
						got, err := NewFragment(ids, flags)
						if err != nil {
							t.Fatalf("size %d chunk %d seed %d op %d: %v", size, chunk, seed, op, err)
						}
						agree(t, "shuffled fragment", got, &fm)
						if err := shards[1-a].Absorb(got, 2*size); err != nil {
							t.Fatalf("size %d chunk %d seed %d op %d: %v", size, chunk, seed, op, err)
						}
						other := models[1-a]
						other.ids = append(other.ids, fm.ids...)
						other.done = append(other.done, fm.done...)
						cursor = min(cursor, shards[0].Len())
					case 6:
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

// interleaved builds a shard of the ids below 2*size with parity odd: every
// run one exemplar long.
func interleaved(t *testing.T, odd, size int) *Shard {
	ids := make([]float64, size)
	for i := range ids {
		ids[i] = float64(2*i + odd)
	}
	s, err := NewFragment(ids, make([]byte, size))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardMoveCostIsSizeFree: moving a 100-exemplar fragment from one
// one-run shard to another and back allocates as often and as much at
// 1,000 exemplars a shard as at 100,000 — no per-exemplar id storage, no
// bitmap over the job — and leaves the receiver at most 2 runs and the
// sender, when its exemplars come back, 1.
func TestShardMoveCostIsSizeFree(t *testing.T) {
	measure := func(n int) (allocs float64, bytes uint64) {
		a, b := NewShard(0, n), NewShard(n, 2*n)
		a.MarkRange(n-70, n)
		move := func() {
			if err := b.Absorb(a.TakeFragment(100), 2*n); err != nil {
				t.Fatal(err)
			}
			if len(b.runs) > 2 {
				t.Fatalf("n %d: receiver holds %d runs", n, len(b.runs))
			}
			if err := a.Absorb(b.TakeFragment(100), 2*n); err != nil {
				t.Fatal(err)
			}
			if len(a.runs) != 1 || a.Len() != n || !a.Processed(n-1) || a.Processed(n-71) {
				t.Fatalf("n %d: sender back as %+v", n, a.runs)
			}
		}
		move() // the receiver's flag words grow once
		allocs = testing.AllocsPerRun(50, move)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 50 {
			move()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 50
	}
	smallAllocs, smallBytes := measure(1_000)
	bigAllocs, bigBytes := measure(100_000)
	if smallAllocs != bigAllocs || smallBytes != bigBytes {
		t.Fatalf("a move allocates %v times, %d B at 1,000 exemplars; %v times, %d B at 100,000",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}

// BenchmarkShardRedistribute is one ADM withdrawal and return at the
// shard level, as four slaves over 100,000 exemplars see it: slave 0 ships
// its whole shard, mid-iteration, in three fragments that travel as ids
// and flags, and takes the same counts back from the three.
func BenchmarkShardRedistribute(b *testing.B) {
	const total, slaves = 100_000, 4
	per := total / slaves
	shards := make([]*Shard, slaves)
	for i := range shards {
		shards[i] = NewShard(i*per, (i+1)*per)
		shards[i].MarkRange(0, per/2)
	}
	ship := func(from, to *Shard, n int) {
		frag := from.TakeFragment(n)
		ids := make([]float64, frag.Len())
		flags := make([]byte, frag.Len())
		frag.Export(ids, flags)
		got, err := NewFragment(ids, flags)
		if err == nil {
			err = to.Absorb(got, total)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := 1; i < slaves; i++ {
			ship(shards[0], shards[i], per/(slaves-1))
		}
		for i := 1; i < slaves; i++ {
			ship(shards[i], shards[0], per/(slaves-1))
		}
	}
}

// TestShardAbsorbRejectsForeignIDs: a fragment carrying an id outside the
// job's exemplars, one the receiver holds, or one twice is refused whole,
// and the receiver is left as it was. A fragment whose flags do not match
// its ids, or whose id is no whole number, is not built. Each refusal is
// adm.bad-fragment.
func TestShardAbsorbRejectsForeignIDs(t *testing.T) {
	for name, ids := range map[string][]float64{
		"negative":          {12, -1},
		"past the end":      {12, 20},
		"held":              {12, 5},
		"twice in the frag": {12, 13, 12},
	} {
		s := NewShard(0, 10)
		s.MarkRange(0, 3)
		frag, err := NewFragment(ids, bytes.Repeat([]byte{1}, len(ids)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Absorb(frag, 20); !errs.Is(err, CodeBadFragment) {
			t.Errorf("%s: fragment %v absorbed (%v)", name, ids, err)
		}
		want := &boolModel{}
		for id := 0; id < 10; id++ {
			want.ids = append(want.ids, id)
			want.done = append(want.done, id < 3)
		}
		agree(t, name, s, want)
	}
	if _, err := NewFragment([]float64{12, 13}, []byte{1}); !errs.Is(err, CodeBadFragment) {
		t.Errorf("a fragment of 2 ids with 1 flag built: %v", err)
	}
	if _, err := NewFragment([]float64{12.5}, []byte{1}); !errs.Is(err, CodeBadFragment) {
		t.Errorf("a fragment with id 12.5 built: %v", err)
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
