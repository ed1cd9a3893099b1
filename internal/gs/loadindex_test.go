package gs

import (
	"testing"

	"pvmigrate/internal/sim"
)

// bruteWorst mirrors WorstEligible by full scan.
func bruteWorst(x *LoadIndex, elig []bool) (int, int) {
	host, load := -1, 0
	for h := 0; h < x.Hosts(); h++ {
		if elig != nil && !elig[h] {
			continue
		}
		if x.Load(h) > load {
			host, load = h, x.Load(h)
		}
	}
	return host, load
}

func bruteBest(x *LoadIndex, elig []bool) (int, int) {
	host, load := -1, int(^uint(0)>>1)
	for h := 0; h < x.Hosts(); h++ {
		if elig != nil && !elig[h] {
			continue
		}
		if x.Load(h) < load {
			host, load = h, x.Load(h)
		}
	}
	if host < 0 {
		return -1, 0
	}
	return host, load
}

func TestLoadIndexBasics(t *testing.T) {
	x := NewLoadIndex(4)
	if x.Total() != 0 || x.MaxLoad() != 0 {
		t.Fatalf("fresh index: total=%d max=%d", x.Total(), x.MaxLoad())
	}
	x.NoteSpawn(2)
	x.NoteSpawn(2)
	x.NoteSpawn(1)
	if x.Load(2) != 2 || x.Load(1) != 1 || x.Total() != 3 || x.MaxLoad() != 2 {
		t.Fatalf("after spawns: %+v total=%d max=%d", x.loads, x.Total(), x.MaxLoad())
	}
	x.NoteMoved(2, 3)
	if x.Load(2) != 1 || x.Load(3) != 1 || x.Total() != 3 {
		t.Fatalf("after move: %+v", x.loads)
	}
	if h, ld := x.WorstEligible(nil); h != 1 || ld != 1 {
		t.Fatalf("worst = (%d,%d), want lowest-id tie winner (1,1)", h, ld)
	}
	if h, ld := x.BestEligible(nil); h != 0 || ld != 0 {
		t.Fatalf("best = (%d,%d), want (0,0)", h, ld)
	}
	x.NoteExit(1)
	x.NoteExit(2)
	x.NoteExit(3)
	if x.Total() != 0 || x.MaxLoad() != 0 {
		t.Fatalf("drained: total=%d max=%d", x.Total(), x.MaxLoad())
	}
}

func TestLoadIndexClampsUnderflow(t *testing.T) {
	x := NewLoadIndex(2)
	x.NoteExit(0)
	if x.Load(0) != 0 || x.Total() != 0 {
		t.Fatalf("underflow not clamped: load=%d total=%d", x.Load(0), x.Total())
	}
	// The clamp is a no-op, not a move to a negative level: the minimum the
	// best-host walk starts from must still be 0.
	if h, ld := x.BestEligible(nil); h != 0 || ld != 0 {
		t.Fatalf("best after clamp = (%d,%d), want (0,0)", h, ld)
	}
	x.Set(0, 3)
	x.Set(1, 2)
	x.Add(0, -5)
	if h, ld := x.BestEligible(nil); h != 0 || ld != 0 || x.MaxLoad() != 2 {
		t.Fatalf("best after clamped drain = (%d,%d) max %d, want (0,0) max 2", h, ld, x.MaxLoad())
	}
}

// TestLoadIndexRandomChurn drives the index with seeded random deltas and
// cross-checks every query against a brute-force recount.
func TestLoadIndexRandomChurn(t *testing.T) {
	const hosts = 23
	rng := sim.NewRNG(99)
	x := NewLoadIndex(hosts)
	ref := make([]int, hosts)
	elig := make([]bool, hosts)
	for step := 0; step < 5000; step++ {
		h := rng.Intn(hosts)
		switch rng.Intn(4) {
		case 0:
			x.NoteSpawn(h)
			ref[h]++
		case 1:
			x.NoteExit(h) // clamps at 0
			if ref[h] > 0 {
				ref[h]--
			}
		case 2:
			to := rng.Intn(hosts)
			if ref[h] > 0 && to != h {
				x.NoteMoved(h, to)
				ref[h]--
				ref[to]++
			}
		case 3:
			n := rng.Intn(7)
			x.Set(h, n)
			ref[h] = n
		}
		// Every step, not every 97th: the best-host walk starts at a cursor
		// that every mutation must keep exact, and a stale one shows only
		// until the next mutation happens to repair it.
		bh, bl := bruteBest(x, nil)
		if gh, gl := x.BestEligible(nil); gh != bh || gl != bl || int(x.minLoad) != bl {
			t.Fatalf("step %d: nil-elig best=(%d,%d) from level %d, brute=(%d,%d)", step, gh, gl, x.minLoad, bh, bl)
		}
		if step%97 != 0 {
			continue
		}
		total, max := 0, 0
		for i, want := range ref {
			if x.Load(i) != want {
				t.Fatalf("step %d: Load(%d)=%d want %d", step, i, x.Load(i), want)
			}
			total += want
			if want > max {
				max = want
			}
		}
		if x.Total() != total || x.MaxLoad() != max {
			t.Fatalf("step %d: total=%d/%d max=%d/%d", step, x.Total(), total, x.MaxLoad(), max)
		}
		for i := range elig {
			elig[i] = rng.Intn(3) != 0
		}
		wh, wl := x.WorstEligible(elig)
		bh, bl = bruteWorst(x, elig)
		if wh != bh || wl != bl {
			t.Fatalf("step %d: worst=(%d,%d) brute=(%d,%d)", step, wh, wl, bh, bl)
		}
		gh, gl := x.BestEligible(elig)
		ch, cl := bruteBest(x, elig)
		if gh != ch || gl != cl {
			t.Fatalf("step %d: best=(%d,%d) brute=(%d,%d)", step, gh, gl, ch, cl)
		}
		if wn, _ := x.WorstEligible(nil); wn != func() int { h, _ := bruteWorst(x, nil); return h }() {
			t.Fatalf("step %d: nil-elig worst mismatch", step)
		}
	}
}

// spreadByUnits is Spread's contract spelled out: n rounds of BestEligible +
// NoteMoved, from never its own destination, stopping when from is empty or
// nobody is eligible.
func spreadByUnits(x *LoadIndex, from, n int, elig []bool) int {
	mask := make([]bool, x.Hosts())
	for h := range mask {
		mask[h] = h != from && (elig == nil || elig[h])
	}
	moved := 0
	for ; moved < n && x.Load(from) > 0; moved++ {
		dest, _ := x.BestEligible(mask)
		if dest < 0 {
			break
		}
		x.NoteMoved(from, dest)
	}
	return moved
}

// TestPropSpreadMatchesUnitLoop drives Spread and the literal unit loop on
// twin random indexes — skewed loads with empty levels between them, every
// shape of eligibility — and requires the same index afterwards, as far as
// any caller can tell.
func TestPropSpreadMatchesUnitLoop(t *testing.T) {
	rng := sim.NewRNG(1994)
	for trial := 0; trial < 600; trial++ {
		hosts := 1 + rng.Intn(300)
		a, b := NewLoadIndex(hosts), NewLoadIndex(hosts)
		// A few distinct levels, far apart, so buckets are big and most
		// levels between them are empty; then some strays.
		levels := []int{0, rng.Intn(4), 5 + rng.Intn(40), 60 + rng.Intn(200)}
		for h := 0; h < hosts; h++ {
			ld := levels[rng.Intn(len(levels))]
			if rng.Intn(6) == 0 {
				ld = rng.Intn(30)
			}
			a.Set(h, ld)
			b.Set(h, ld)
		}
		from := rng.Intn(hosts)
		if rng.Intn(3) > 0 { // usually a host worth evacuating
			ld := 1 + rng.Intn(400)
			a.Set(from, ld)
			b.Set(from, ld)
		}
		var elig []bool
		switch shape := rng.Intn(5); shape {
		case 0: // nil: everyone, from included
		case 1: // nobody
			elig = make([]bool, hosts)
		default: // everyone, half, one in ten; from marked either way
			elig = make([]bool, hosts)
			for h := range elig {
				elig[h] = shape == 2 || rng.Intn([]int{2, 10}[shape-3]) == 0
			}
			elig[from] = rng.Intn(2) == 0
		}
		n := a.Load(from) // the whole host, or
		switch rng.Intn(4) {
		case 0:
			n = rng.Intn(n + 1) // part of it, 0 included, or
		case 1:
			n += 1 + rng.Intn(5) // more than it holds
		}

		got := a.Spread(from, n, elig)
		want := spreadByUnits(b, from, n, elig)
		if got != want {
			t.Fatalf("trial %d (hosts %d from %d n %d): moved %d, unit loop %d", trial, hosts, from, n, got, want)
		}
		for h := 0; h < hosts; h++ {
			if a.Load(h) != b.Load(h) {
				t.Fatalf("trial %d (hosts %d from %d n %d): Load(%d) = %d, unit loop %d", trial, hosts, from, n, h, a.Load(h), b.Load(h))
			}
		}
		if a.Total() != b.Total() || a.MaxLoad() != b.MaxLoad() {
			t.Fatalf("trial %d: total %d/%d max %d/%d", trial, a.Total(), b.Total(), a.MaxLoad(), b.MaxLoad())
		}
		for _, e := range [][]bool{nil, elig} {
			ah, al := a.BestEligible(e)
			bh, bl := b.BestEligible(e)
			ch, cl := bruteBest(a, e)
			if ah != bh || al != bl || ah != ch || al != cl {
				t.Fatalf("trial %d: best after = (%d,%d), unit loop (%d,%d), brute (%d,%d)", trial, ah, al, bh, bl, ch, cl)
			}
			ah, al = a.WorstEligible(e)
			bh, bl = b.WorstEligible(e)
			ch, cl = bruteWorst(a, e)
			if ah != bh || al != bl || ah != ch || al != cl {
				t.Fatalf("trial %d: worst after = (%d,%d), unit loop (%d,%d), brute (%d,%d)", trial, ah, al, bh, bl, ch, cl)
			}
		}
	}
}
