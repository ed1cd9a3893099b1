package sweep_test

import (
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/sim"
	"pvmigrate/internal/sweep"
)

// kernelFingerprint runs a small seeded simulation — a few procs racing on
// a queue under a seeded tie-breaker — and condenses the schedule into a
// comparable value. Distinct seeds give distinct schedules, and the same
// seed must give the same schedule no matter which host thread runs it.
func kernelFingerprint(seed uint64) uint64 {
	k := sim.NewKernel()
	k.SetTieBreakSeed(seed)
	rng := sim.NewRNG(seed)
	q := sim.NewQueue[int](k)
	var fp uint64
	for i := 0; i < 4; i++ {
		i := i
		jitter := sim.Time(rng.Intn(100)) * time.Microsecond
		k.Spawn("prod", func(p *sim.Proc) {
			for j := 0; j < 8; j++ {
				p.Sleep(jitter)
				q.TryPut(i*8 + j)
			}
		})
	}
	k.Spawn("cons", func(p *sim.Proc) {
		for n := 0; n < 32; n++ {
			v, err := q.Get(p)
			if err != nil {
				return
			}
			fp = fp*1099511628211 + uint64(v)
		}
	})
	k.Run()
	return fp ^ uint64(k.Now())
}

func TestMapOrderAndCoverage(t *testing.T) {
	got := sweep.Map(100, 7, func(i int) int { return i * i })
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if out := sweep.Map(0, 4, func(i int) int { return i }); out != nil {
		t.Fatalf("n=0 returned %v", out)
	}
	if out := sweep.Map(1, 8, func(i int) int { return 41 + i }); len(out) != 1 || out[0] != 41 {
		t.Fatalf("n=1 returned %v", out)
	}
}

// TestParallelMatchesSerial is the package's core contract: fanning seeded
// kernel runs across workers yields bit-identical per-seed results to the
// inline serial loop.
func TestParallelMatchesSerial(t *testing.T) {
	const n = 48
	serial := sweep.Seeds(n, 1, kernelFingerprint)
	for _, workers := range []int{2, 4, 8} {
		par := sweep.Seeds(n, workers, kernelFingerprint)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d seed %d: fingerprint %x != serial %x",
					workers, i, par[i], serial[i])
			}
		}
	}
	// Sanity: the workload actually distinguishes seeds, or the comparison
	// above is vacuous.
	distinct := map[uint64]bool{}
	for _, fp := range serial {
		distinct[fp] = true
	}
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct fingerprints across %d seeds", len(distinct), n)
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if !strings.Contains(r.(string), "boom-17") {
			t.Fatalf("panic value lost: %v", r)
		}
	}()
	sweep.Map(32, 4, func(i int) int {
		if i == 17 {
			panic("boom-17")
		}
		return i
	})
}

func TestWorkersClamp(t *testing.T) {
	if sweep.Workers(3) != 3 {
		t.Fatal("explicit worker count not honoured")
	}
	if sweep.Workers(0) < 1 || sweep.Workers(-2) < 1 {
		t.Fatal("defaulted worker count must be positive")
	}
}
