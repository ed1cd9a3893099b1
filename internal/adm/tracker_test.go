package adm

import (
	"testing"

	"pvmigrate/internal/sim"
)

// TestPropTrackerMatchesMapModel drives the flag array and a map[int]bool
// reference through random operation mixes — marks and queries of ids on
// both sides of the array's current end, shards synced from and seeded into
// the tracker — with a Reset between mixes, and requires every answer to
// agree.
func TestPropTrackerMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRNG(seed)
		tr := NewTracker()
		model := map[int]bool{}
		// maxID widens from mix to mix so ids keep landing past the end of
		// an array sized by the mixes before.
		maxID := 8
		randomShard := func() *Shard {
			lo := rng.Intn(maxID)
			s := NewShard(lo, lo+1+rng.Intn(40))
			for i := range s.ProcessedFlags {
				s.ProcessedFlags[i] = rng.Intn(3) == 0
			}
			return s
		}
		for mix := 0; mix < 12; mix++ {
			for op := 0; op < 200; op++ {
				id := rng.Intn(maxID)
				switch rng.Intn(5) {
				case 0, 1:
					if got, want := tr.MarkProcessed(id), !model[id]; got != want {
						t.Fatalf("seed %d mix %d: MarkProcessed(%d) = %v, model %v", seed, mix, id, got, want)
					}
					model[id] = true
				case 2:
					if got := tr.Processed(id); got != model[id] {
						t.Fatalf("seed %d mix %d: Processed(%d) = %v, model %v", seed, mix, id, got, model[id])
					}
				case 3:
					s := randomShard()
					s.SeedTracker(tr)
					for i, sid := range s.IDs {
						if s.ProcessedFlags[i] {
							model[sid] = true
						}
					}
				case 4:
					s := randomShard()
					s.SyncFlags(tr)
					for i, sid := range s.IDs {
						if s.ProcessedFlags[i] != model[sid] {
							t.Fatalf("seed %d mix %d: SyncFlags gave id %d = %v, model %v",
								seed, mix, sid, s.ProcessedFlags[i], model[sid])
						}
					}
				}
				if tr.Done() != len(model) {
					t.Fatalf("seed %d mix %d: Done = %d, model %d", seed, mix, tr.Done(), len(model))
				}
			}
			tr.Reset()
			model = map[int]bool{}
			if tr.Done() != 0 {
				t.Fatalf("seed %d: Done = %d after Reset", seed, tr.Done())
			}
			for id := 0; id < maxID+40; id++ {
				if tr.Processed(id) {
					t.Fatalf("seed %d mix %d: id %d still processed after Reset", seed, mix, id)
				}
			}
			maxID *= 2
		}
	}
}

func TestTrackerNegativeIDPanics(t *testing.T) {
	for name, call := range map[string]func(*Tracker){
		"MarkProcessed": func(tr *Tracker) { tr.MarkProcessed(-1) },
		"Processed":     func(tr *Tracker) { tr.Processed(-1) },
	} {
		for _, sized := range []bool{false, true} {
			tr := NewTracker()
			if sized {
				tr.MarkProcessed(100)
			}
			func() {
				defer func() {
					if r := recover(); r != "adm: negative exemplar id" {
						t.Errorf("%s(-1), sized=%v: recovered %v, want the negative-id panic", name, sized, r)
					}
				}()
				call(tr)
			}()
		}
	}
}

// TestTrackerSteadyStateZeroAlloc is the run-time face of the noalloc lint
// roots on the Tracker: once the array covers the ids in play, a whole
// iteration — mark, re-mark, query, Reset — allocates nothing.
func TestTrackerSteadyStateZeroAlloc(t *testing.T) {
	const n = 1000
	tr := NewTracker()
	tr.MarkProcessed(n - 1)
	tr.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for id := 0; id < n; id++ {
			if tr.Processed(id) || !tr.MarkProcessed(id) || tr.MarkProcessed(id) {
				t.Fatalf("id %d: wrong flag state", id)
			}
		}
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("sized Tracker iteration allocates %v per run, want 0", allocs)
	}
}
