package gs

import (
	"reflect"
	"slices"
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

// checkLevels is the index's invariant oracle: every structure derived from
// the loads — each level's row and count, the occupancy bits, both cursors
// and the total — must say what a recount of loads says.
func checkLevels(t *testing.T, x *LoadIndex) {
	t.Helper()
	levels := len(x.count)
	rows := make([]uint64, levels*x.w)
	count := make([]int32, levels)
	total, lo, hi := 0, int32(0), int32(0)
	for h, ld := range x.loads {
		if ld < 0 || int(ld) >= levels {
			t.Fatalf("host %d at load %d, outside the %d levels", h, ld, levels)
		}
		rows[int(ld)*x.w+h>>6] |= 1 << (h & 63)
		count[ld]++
		total += int(ld)
		if h == 0 || ld < lo {
			lo = ld
		}
		hi = max(hi, ld)
	}
	if !slices.Equal(x.rows, rows) {
		t.Fatalf("rows disagree with loads %v", x.loads)
	}
	if !slices.Equal(x.count, count) {
		t.Fatalf("count %v, loads say %v", x.count, count)
	}
	if len(x.occ) < (levels+63)>>6 {
		t.Fatalf("%d occupancy words for %d levels", len(x.occ), levels)
	}
	for ld := 0; ld < len(x.occ)<<6; ld++ {
		want := ld < levels && count[ld] > 0
		if got := x.occ[ld>>6]&(1<<(ld&63)) != 0; got != want {
			t.Fatalf("occupancy bit %d = %v, want %v", ld, got, want)
		}
	}
	if x.minLoad != lo || x.maxLoad != hi || x.total != total {
		t.Fatalf("cursors [%d, %d] total %d, loads say [%d, %d] total %d", x.minLoad, x.maxLoad, x.total, lo, hi, total)
	}
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
			checkLevels(t, x)
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
// loadsOf returns every host's load.
func loadsOf(x *LoadIndex) []int {
	l := make([]int, x.Hosts())
	for h := range l {
		l[h] = x.Load(h)
	}
	return l
}

// spreadCalls is the OnChange sequence Spread owes for a move from host from
// that took the loads from before to after: each host whose load changed,
// once, receivers in id order, from last — and none when nothing moved.
func spreadCalls(before, after []int, from int) []int {
	var calls []int
	for h := range before {
		if h != from && before[h] != after[h] {
			calls = append(calls, h)
		}
	}
	if before[from] != after[from] {
		calls = append(calls, from)
	}
	return calls
}

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

// placeByUnits is Place's literal unit loop: n rounds of BestEligible over
// elig without from, each pick raised on x before the next.
func placeByUnits(x *LoadIndex, from, n int, elig HostSet) []int {
	mask := NewHostSet(x.Hosts())
	for h := 0; h < x.Hosts(); h++ {
		mask.Put(h, h != from && elig.Has(h))
	}
	var out []int
	for len(out) < n {
		dest, _ := x.BestEligible(mask)
		if dest < 0 {
			break
		}
		x.NoteSpawn(dest)
		out = append(out, dest)
	}
	return out
}

// TestPropSpreadMatchesUnitLoop drives Spread and the literal unit loop on
// twin random indexes — skewed loads with empty levels between them, every
// shape of eligibility — and requires the same index afterwards, as far as
// any caller can tell, and exactly the OnChange calls the unit loop's loads
// owe (spreadCalls). Place, asked first on the same index, must name the
// hosts Spread then raises, and beyond from's load go on as its own unit
// loop does on a third twin.
func TestPropSpreadMatchesUnitLoop(t *testing.T) {
	rng := sim.NewRNG(1994)
	for trial := 0; trial < 600; trial++ {
		hosts := 1 + rng.Intn(300)
		a, b, c := NewLoadIndex(hosts), NewLoadIndex(hosts), NewLoadIndex(hosts)
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
			c.Set(h, ld)
		}
		from := rng.Intn(hosts)
		if rng.Intn(3) > 0 { // usually a host worth evacuating
			ld := 1 + rng.Intn(400)
			a.Set(from, ld)
			b.Set(from, ld)
			c.Set(from, ld)
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

		placed := a.Place(from, n, elig)
		if want := placeByUnits(c, from, n, elig); !slices.Equal(placed, want) {
			t.Fatalf("trial %d (hosts %d from %d n %d): Place %v, unit loop %v", trial, hosts, from, n, placed, want)
		}
		var raised []int
		a.watchers = nil
		a.OnChange(func(h int) { raised = append(raised, h) })
		before := loadsOf(b)
		got := a.Spread(from, n, elig)
		want := spreadByUnits(b, from, n, elig)
		if got != want {
			t.Fatalf("trial %d (hosts %d from %d n %d): moved %d, unit loop %d", trial, hosts, from, n, got, want)
		}
		checkLevels(t, a)
		calls := spreadCalls(before, loadsOf(b), from)
		if !slices.Equal(raised, calls) {
			t.Fatalf("trial %d (hosts %d from %d n %d): OnChange calls %v, want %v", trial, hosts, from, n, raised, calls)
		}
		if named := slices.Compact(slices.Sorted(slices.Values(placed[:got]))); got > 0 && !slices.Equal(named, calls[:len(calls)-1]) {
			t.Fatalf("trial %d (hosts %d from %d n %d): Place named %v, Spread raised %v", trial, hosts, from, n, named, calls[:len(calls)-1])
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
		checkLevels(t, a)
		checkLevels(t, b)
		agree("after Spread")
	}
}

// TestPlaceFromOutOfRange: a from outside the index names no host, so Place
// excludes no one and answers as its unit loop does; Spread moves nothing
// and calls no one. -1 and 64 lie outside the 10-host index's one word, 10
// and 63 inside it.
func TestPlaceFromOutOfRange(t *testing.T) {
	const hosts = 10
	loads := []int{4, 0, 2, 7, 0, 1, 3, 0, 5, 2}
	build := func() *LoadIndex {
		x := NewLoadIndex(hosts)
		for h, ld := range loads {
			x.Set(h, ld)
		}
		return x
	}
	half := NewHostSet(hosts)
	for h := 0; h < hosts; h += 2 {
		half.Put(h, true)
	}
	for _, from := range []int{-65, -1, 10, 63, 64, 1000} {
		for _, elig := range []HostSet{allHosts(hosts), half} {
			x := build()
			got := x.Place(from, 12, elig)
			if want := placeByUnits(build(), from, 12, elig); !slices.Equal(got, want) {
				t.Fatalf("Place(%d, 12) = %v, unit loop %v", from, got, want)
			}
			calls := 0
			x.OnChange(func(int) { calls++ })
			if moved := x.Spread(from, 12, elig); moved != 0 || calls != 0 {
				t.Fatalf("Spread(%d, 12) moved %d with %d calls, want 0 and 0", from, moved, calls)
			}
			checkLevels(t, x)
		}
	}
}

// TestSpreadLoneClimber is the shape that once cost one level per unit:
// owner-held hosts at 0 that cannot receive, one receiving host at 3, the
// rest at 130 and from at 250, so the fill's gaps cross the occupancy
// word's 64-level boundaries. The climber takes 127 units alone, one per
// level from 3 to 130; the last 73 go one each to it and the 72 lowest ids
// among the hosts it joins there. OnChange names each of those 73 hosts
// once, in id order, then from.
func TestSpreadLoneClimber(t *testing.T) {
	const hosts, held, climber, from, n = 100, 10, 10, 99, 200
	build := func() *LoadIndex {
		x := NewLoadIndex(hosts)
		for h := held + 1; h < hosts; h++ {
			x.Set(h, 130)
		}
		x.Set(climber, 3)
		x.Set(from, 250)
		return x
	}
	elig := allHosts(hosts)
	for h := 0; h < held; h++ {
		elig.Put(h, false)
	}
	var want []int
	for i := 0; i < 127; i++ {
		want = append(want, climber)
	}
	for h := climber; h < climber+73; h++ {
		want = append(want, h)
	}

	a, b, c := build(), build(), build()
	placed := c.Place(from, n, elig)
	if !slices.Equal(placed, want) {
		t.Fatalf("Place named %v,\nwant %v", placed, want)
	}
	var calls []int
	a.OnChange(func(h int) { calls = append(calls, h) })
	before := loadsOf(b)
	if moved, ref := a.Spread(from, n, elig), spreadByUnits(b, from, n, elig); moved != n || ref != n {
		t.Fatalf("Spread moved %d, unit loop %d, want %d", moved, ref, n)
	}
	checkLevels(t, a)
	if wantCalls := spreadCalls(before, loadsOf(b), from); !slices.Equal(calls, wantCalls) || len(calls) != 74 {
		t.Fatalf("OnChange calls %v,\nwant %v (73 receivers, then %d)", calls, wantCalls, from)
	}
	for h := 0; h < hosts; h++ {
		if a.Load(h) != b.Load(h) {
			t.Fatalf("Load(%d) = %d, unit loop %d", h, a.Load(h), b.Load(h))
		}
	}
	if a.Load(climber) != 131 || a.Load(82) != 131 || a.Load(83) != 130 || a.Load(from) != 50 {
		t.Fatalf("loads climber %d, 82 %d, 83 %d, from %d; want 131, 131, 130, 50",
			a.Load(climber), a.Load(82), a.Load(83), a.Load(from))
	}
}

// TestPlaceAllocatesOnlyItsResult: on a warm index, Place's one allocation
// is the slice it returns — the fill runs on the index's own scratch.
func TestPlaceAllocatesOnlyItsResult(t *testing.T) {
	x := NewLoadIndex(130)
	for h := 0; h < 130; h++ {
		x.Set(h, (h*37)%23)
	}
	elig := allHosts(130)
	x.Place(5, 300, elig)
	if allocs := testing.AllocsPerRun(50, func() { x.Place(5, 300, elig) }); allocs != 1 {
		t.Fatalf("Place allocated %.0f times, want 1", allocs)
	}
}

// BenchmarkLoadIndexSpread evacuates 100 units from one host of a
// 1,000-host index in fleet_storm's level shape — 100,000 units, a fifth of
// them on the 50 hot hosts, and every tenth host owner-held at 0 and unable
// to receive — and then puts every touched host back, so each op starts
// from the same loads. Warm, an op allocates nothing.
func BenchmarkLoadIndexSpread(b *testing.B) {
	const hosts, units, evac = 1000, 100000, 100
	rng := sim.NewRNG(1994)
	base := make([]int, hosts)
	for i := 0; i < units; i++ {
		if i%5 == 0 {
			base[rng.Intn(hosts/20)]++
		} else {
			base[rng.Intn(hosts)]++
		}
	}
	elig := allHosts(hosts)
	for h := 0; h < hosts; h += 10 {
		base[h] = 0
		elig.Put(h, false)
	}
	const from = 101
	base[from] = evac
	x := NewLoadIndex(hosts)
	for h, ld := range base {
		x.Set(h, ld)
	}
	op := func() {
		if x.Spread(from, evac, elig) != evac {
			b.Fatal("the evacuation stranded units")
		}
		for _, h := range x.ids {
			x.Set(h, base[h])
		}
		x.Set(from, evac)
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
