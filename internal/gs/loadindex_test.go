package gs

import (
	"reflect"
	"testing"

	"pvmigrate/internal/sim"
)

// allHosts is the set of every host of an n-host index.
func allHosts(n int) HostSet {
	s := NewHostSet(n)
	for h := 0; h < n; h++ {
		s.Put(h, true)
	}
	return s
}

// bruteWorst mirrors WorstEligible by full scan.
func bruteWorst(x *LoadIndex, elig HostSet) (int, int) {
	host, load := -1, 0
	for h := 0; h < x.Hosts(); h++ {
		if !elig.Has(h) {
			continue
		}
		if x.Load(h) > load {
			host, load = h, x.Load(h)
		}
	}
	return host, load
}

func bruteBest(x *LoadIndex, elig HostSet) (int, int) {
	host, load := -1, int(^uint(0)>>1)
	for h := 0; h < x.Hosts(); h++ {
		if !elig.Has(h) {
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

// wordSizes straddle the 64-bit word boundaries of a HostSet and an index row.
var wordSizes = []int{1, 23, 63, 64, 65, 130}

// TestHostSet holds every size's Put/Has to a []bool reference, and a copy of
// a set to the set itself: a ShardView's Elig is the shard's own column.
func TestHostSet(t *testing.T) {
	rng := sim.NewRNG(64)
	for _, n := range wordSizes {
		s := NewHostSet(n)
		alias := s
		ref := make([]bool, n)
		for step := 0; step < 40*n; step++ {
			h, on := rng.Intn(n), rng.Intn(2) == 0
			s.Put(h, on)
			ref[h] = on
			for i, want := range ref {
				if s.Has(i) != want || alias.Has(i) != want {
					t.Fatalf("n %d step %d: Has(%d) = %v (copy %v), want %v", n, step, i, s.Has(i), alias.Has(i), want)
				}
			}
		}
	}
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
	if h, ld := x.WorstEligible(allHosts(4)); h != 1 || ld != 1 {
		t.Fatalf("worst = (%d,%d), want lowest-id tie winner (1,1)", h, ld)
	}
	if h, ld := x.BestEligible(allHosts(4)); h != 0 || ld != 0 {
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
	both := allHosts(2)
	if h, ld := x.BestEligible(both); h != 0 || ld != 0 {
		t.Fatalf("best after clamp = (%d,%d), want (0,0)", h, ld)
	}
	x.Set(0, 3)
	x.Set(1, 2)
	x.Add(0, -5)
	if h, ld := x.BestEligible(both); h != 0 || ld != 0 || x.MaxLoad() != 2 {
		t.Fatalf("best after clamped drain = (%d,%d) max %d, want (0,0) max 2", h, ld, x.MaxLoad())
	}
}

// TestLoadIndexRandomChurn drives the index with seeded random deltas and
// cross-checks every query against a brute-force recount, at sizes on both
// sides of each word boundary of a row.
func TestLoadIndexRandomChurn(t *testing.T) {
	for _, hosts := range wordSizes {
		rng := sim.NewRNG(99)
		x := NewLoadIndex(hosts)
		ref := make([]int, hosts)
		all := allHosts(hosts)
		elig := NewHostSet(hosts)
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
			// Every step, not every 97th: the best-host walk starts at a
			// cursor that every mutation must keep exact, and a stale one
			// shows only until the next mutation happens to repair it.
			bh, bl := bruteBest(x, all)
			if gh, gl := x.BestEligible(all); gh != bh || gl != bl || int(x.minLoad) != bl {
				t.Fatalf("hosts %d step %d: all-host best=(%d,%d) from level %d, brute=(%d,%d)", hosts, step, gh, gl, x.minLoad, bh, bl)
			}
			if step%97 != 0 {
				continue
			}
			total, max := 0, 0
			for i, want := range ref {
				if x.Load(i) != want {
					t.Fatalf("hosts %d step %d: Load(%d)=%d want %d", hosts, step, i, x.Load(i), want)
				}
				total += want
				if want > max {
					max = want
				}
			}
			if x.Total() != total || x.MaxLoad() != max {
				t.Fatalf("hosts %d step %d: total=%d/%d max=%d/%d", hosts, step, x.Total(), total, x.MaxLoad(), max)
			}
			for i := 0; i < hosts; i++ {
				elig.Put(i, rng.Intn(3) != 0)
			}
			wh, wl := x.WorstEligible(elig)
			bh, bl = bruteWorst(x, elig)
			if wh != bh || wl != bl {
				t.Fatalf("hosts %d step %d: worst=(%d,%d) brute=(%d,%d)", hosts, step, wh, wl, bh, bl)
			}
			gh, gl := x.BestEligible(elig)
			ch, cl := bruteBest(x, elig)
			if gh != ch || gl != cl {
				t.Fatalf("hosts %d step %d: best=(%d,%d) brute=(%d,%d)", hosts, step, gh, gl, ch, cl)
			}
			wh, wl = x.WorstEligible(all)
			if bh, bl = bruteWorst(x, all); wh != bh || wl != bl {
				t.Fatalf("hosts %d step %d: all-host worst=(%d,%d) brute=(%d,%d)", hosts, step, wh, wl, bh, bl)
			}
		}
	}
}

// spreadByUnits is Spread's contract spelled out: n rounds of BestEligible +
// NoteMoved, from never its own destination, stopping when from is empty or
// nobody is eligible.
func spreadByUnits(x *LoadIndex, from, n int, elig HostSet) int {
	mask := NewHostSet(x.Hosts())
	for h := 0; h < x.Hosts(); h++ {
		mask.Put(h, h != from && elig.Has(h))
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
		// A few distinct levels, far apart, so levels are crowded and most
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
		all := allHosts(hosts)
		elig := all // everyone, from included
		switch shape := rng.Intn(5); shape {
		case 0:
		case 1: // nobody
			elig = NewHostSet(hosts)
		default: // everyone, half, one in ten; from marked either way
			elig = NewHostSet(hosts)
			for h := 0; h < hosts; h++ {
				elig.Put(h, shape == 2 || rng.Intn([]int{2, 10}[shape-3]) == 0)
			}
			elig.Put(from, rng.Intn(2) == 0)
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
		for _, e := range []HostSet{all, elig} {
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

// TestLoadIndexSetOrderDoesNotMatter drives two indexes to the same loads by
// different histories — one Set per host in id order, and a detour through
// other loads followed by the final ones in a random order — and requires
// every answer to agree: Best/WorstEligible under several eligibility sets,
// and a Spread's result and the sequence of OnChange calls it makes. The
// fleet's beat relies on it, refreshing its slots in the order they were
// marked.
func TestLoadIndexSetOrderDoesNotMatter(t *testing.T) {
	rng := sim.NewRNG(2718)
	for trial := 0; trial < 300; trial++ {
		hosts := wordSizes[trial%len(wordSizes)]
		want := make([]int, hosts)
		for h := range want {
			want[h] = rng.Intn(8)
		}
		from := rng.Intn(hosts)
		want[from] = rng.Intn(60)
		a, b := NewLoadIndex(hosts), NewLoadIndex(hosts)
		for h, ld := range want {
			a.Set(h, ld)
		}
		for _, h := range rng.Perm(hosts) {
			b.Set(h, rng.Intn(12))
		}
		for _, h := range rng.Perm(hosts) {
			b.Set(h, want[h])
		}
		half := NewHostSet(hosts)
		for h := 0; h < hosts; h++ {
			half.Put(h, rng.Intn(2) == 0)
		}
		sets := []HostSet{allHosts(hosts), NewHostSet(hosts), half}
		agree := func(when string) {
			t.Helper()
			for i, e := range sets {
				ah, al := a.BestEligible(e)
				bh, bl := b.BestEligible(e)
				if ah != bh || al != bl {
					t.Fatalf("trial %d (hosts %d) %s, set %d: best (%d,%d) and (%d,%d)", trial, hosts, when, i, ah, al, bh, bl)
				}
				ah, al = a.WorstEligible(e)
				bh, bl = b.WorstEligible(e)
				if ah != bh || al != bl {
					t.Fatalf("trial %d (hosts %d) %s, set %d: worst (%d,%d) and (%d,%d)", trial, hosts, when, i, ah, al, bh, bl)
				}
			}
		}
		agree("before Spread")
		var aCalls, bCalls []int
		a.OnChange(func(h int) { aCalls = append(aCalls, h) })
		b.OnChange(func(h int) { bCalls = append(bCalls, h) })
		e := sets[[]int{0, 2}[trial%2]]
		n := rng.Intn(want[from] + 2)
		if am, bm := a.Spread(from, n, e), b.Spread(from, n, e); am != bm || !reflect.DeepEqual(aCalls, bCalls) {
			t.Fatalf("trial %d (hosts %d): Spread(%d, %d) moved %d and %d, calls\n%v\n%v", trial, hosts, from, n, am, bm, aCalls, bCalls)
		}
		agree("after Spread")
	}
}
