package gs

import (
	"math/bits"
	"slices"
)

// HostSet is a set of host ids (or shard slots) in [0, n), one bit each:
// the eligibility masks the index's queries take. It is a struct, not a bare
// slice, so that ranging over it or taking its length cannot silently count
// words where hosts were meant. Has and Put take h in [0, n).
type HostSet struct{ w []uint64 }

// NewHostSet returns an empty set over [0, n).
func NewHostSet(n int) HostSet { return HostSet{w: make([]uint64, (n+63)>>6)} }

// Has reports whether h is in the set.
func (s HostSet) Has(h int) bool { return s.w[h>>6]&(1<<(h&63)) != 0 }

// Put adds h to the set when on holds and removes it otherwise. The set is
// shared by every copy of it, as a slice's elements are.
func (s HostSet) Put(h int, on bool) {
	if on {
		s.w[h>>6] |= 1 << (h & 63)
	} else {
		s.w[h>>6] &^= 1 << (h & 63)
	}
}

// LoadIndex is the incremental per-host load table behind every scheduling
// target. Targets push deltas (NoteSpawn/NoteExit/NoteMoved) as placement
// changes happen, so reading a host's load — or finding the most/least
// loaded host — never rescans tasks. Each load level has one bitmap row of
// the hosts at that load, and the index tracks the exact minimum and maximum
// load, so "worst eligible host" is a walk down from the maximum and "best
// eligible host" a walk up from the minimum, each level one AND of its row
// with the eligibility set and a trailing-zero count. Every level walk —
// those two, Spread's and Place's water-fill, the cursor fixes — skips the
// empty levels: one occupancy bit per level says whether it holds a host,
// and the next occupied level is one trailing- (or leading-) zero count of
// that word away. The steady-state mutation path is O(1) and
// allocation-free: the only growth is a new row when a host first reaches a
// load, amortised over the life of the index. Memory is
// (maxLoad+1)·⌈hosts/64⌉ words, which is what buys the lowest id of a level
// for one word operation instead of a walk over its members.
//
// Host ids index the table directly (the cluster assigns dense ids from 0),
// and every tie among equally loaded hosts resolves to the lowest host id,
// so index-driven decisions are a pure function of the loads alone: the
// order of the calls that produced them does not matter.
type LoadIndex struct {
	loads []int32  // current load per host
	w     int      // words per row, ⌈hosts/64⌉
	rows  []uint64 // level ℓ's hosts are the bits of rows[ℓ·w : (ℓ+1)·w]
	count []int32  // hosts per level
	occ   []uint64 // bit ℓ is set while level ℓ holds a host

	minLoad int32 // lowest non-empty level (0 for an index of no hosts)
	maxLoad int32 // highest non-empty level
	total   int

	watchers []func(host int) // OnChange subscribers, in registration order

	// fill's scratch, kept so that a warm Spread allocates nothing.
	takers HostSet // the hosts taking units at the fill's current level
	ids    []int   // takers, in id order
	seq    []int   // Place's receivers, one entry per unit, in pick order
}

// NewLoadIndex returns an index covering hosts [0, hosts) all at load 0.
func NewLoadIndex(hosts int) *LoadIndex {
	w := (hosts + 63) >> 6
	x := &LoadIndex{
		loads:  make([]int32, hosts),
		w:      w,
		rows:   make([]uint64, w, 16*w),
		count:  make([]int32, 1, 16),
		occ:    make([]uint64, 1, 8),
		takers: NewHostSet(hosts),
	}
	for h := 0; h < hosts; h++ {
		x.rows[h>>6] |= 1 << (h & 63)
	}
	x.count[0] = int32(hosts)
	if hosts > 0 {
		x.occ[0] = 1
	}
	return x
}

// Hosts returns the number of hosts the index covers.
func (x *LoadIndex) Hosts() int { return len(x.loads) }

// Load returns host's current load (0 for out-of-range hosts).
func (x *LoadIndex) Load(host int) int {
	if host < 0 || host >= len(x.loads) {
		return 0
	}
	return int(x.loads[host])
}

// Total returns the sum of all host loads (the work-unit population).
func (x *LoadIndex) Total() int { return x.total }

// MaxLoad returns the highest load of any host (exact, not an estimate).
func (x *LoadIndex) MaxLoad() int { return int(x.maxLoad) }

// OnChange registers fn to be called with the host whenever a host's load
// really moves, once the index reads the new value. A call that leaves the
// load where it was (a zero delta, a Set to the current value, a clamp at
// zero) calls no one. A Spread makes its calls after all of its writes, so
// every call reads the final loads: each host whose load changed, once,
// receivers in id order, from last.
func (x *LoadIndex) OnChange(fn func(host int)) {
	x.watchers = append(x.watchers, fn)
}

// notify calls every OnChange subscriber with host.
func (x *LoadIndex) notify(host int) {
	for _, fn := range x.watchers {
		fn(host)
	}
}

// Add applies a signed delta to host's load. Negative results clamp to
// zero — a target that double-counts an exit has a bug the cross-check
// test catches; the index itself must stay well-formed either way.
func (x *LoadIndex) Add(host, delta int) {
	if host < 0 || host >= len(x.loads) || delta == 0 {
		return
	}
	if x.move(host, max(x.loads[host]+int32(delta), 0)) {
		x.notify(host)
	}
}

// move puts host on level nl, keeping the rows, counts, occupancy bits,
// total and both cursors exact, and reports whether its load changed. It
// calls no one.
func (x *LoadIndex) move(host int, nl int32) bool {
	old := x.loads[host]
	if nl == old {
		return false
	}
	word, bit := host>>6, uint64(1)<<(host&63)
	x.rows[int(old)*x.w+word] &^= bit
	x.count[old]--
	if x.count[old] == 0 {
		x.occ[old>>6] &^= 1 << (old & 63)
	}
	for int32(len(x.count)) <= nl {
		x.count = append(x.count, 0)
		for i := 0; i < x.w; i++ {
			x.rows = append(x.rows, 0)
		}
	}
	for len(x.occ) <= int(nl>>6) {
		x.occ = append(x.occ, 0)
	}
	x.rows[int(nl)*x.w+word] |= bit
	x.count[nl]++
	x.occ[nl>>6] |= 1 << (nl & 63)
	x.loads[host] = nl
	x.total += int(nl - old)
	// Both cursors stay exact: a new extreme moves its cursor there; the
	// host leaving the old extreme's level empty moves the cursor to the
	// nearest occupied level, which exists — the host is on one.
	if nl > x.maxLoad {
		x.maxLoad = nl
	} else if x.count[x.maxLoad] == 0 {
		x.maxLoad = x.below(x.maxLoad)
	}
	if nl < x.minLoad {
		x.minLoad = nl
	} else if x.count[x.minLoad] == 0 {
		x.minLoad = x.above(x.minLoad)
	}
	return true
}

// above returns the lowest occupied level at or above ld, or -1.
func (x *LoadIndex) above(ld int32) int32 {
	i := int(ld >> 6)
	if i >= len(x.occ) {
		return -1
	}
	m := x.occ[i] &^ (1<<(ld&63) - 1)
	for m == 0 {
		if i++; i == len(x.occ) {
			return -1
		}
		m = x.occ[i]
	}
	return int32(i<<6 + bits.TrailingZeros64(m))
}

// below returns the highest occupied level at or below ld, or -1.
func (x *LoadIndex) below(ld int32) int32 {
	i := int(ld >> 6)
	m := x.occ[i] & (2<<(ld&63) - 1)
	for m == 0 {
		if i--; i < 0 {
			return -1
		}
		m = x.occ[i]
	}
	return int32(i<<6 + 63 - bits.LeadingZeros64(m))
}

// Set forces host's load to an absolute value (beatShard's refresh).
func (x *LoadIndex) Set(host, load int) {
	if host < 0 || host >= len(x.loads) {
		return
	}
	x.Add(host, load-int(x.loads[host]))
}

// NoteSpawn records one new work unit on host.
func (x *LoadIndex) NoteSpawn(host int) { x.Add(host, 1) }

// NoteExit records one work unit leaving host.
func (x *LoadIndex) NoteExit(host int) { x.Add(host, -1) }

// NoteMoved records one work unit migrating from one host to another.
func (x *LoadIndex) NoteMoved(from, to int) {
	x.Add(from, -1)
	x.Add(to, 1)
}

// fill is the water-fill behind Spread and Place: it finds the receivers of
// n units leaving host from, each the least-loaded host in elig other than
// from once the picks before it are counted, lowest id on ties, and moves
// nothing. It returns how many units found a receiver and where the hosts
// that took part, left in x.ids, end: each on level top, one higher for
// ids[:part]. With keep it also leaves the receivers in x.seq, one entry per
// unit in pick order.
//
// The set of taking hosts changes only where an occupied level begins, so
// fill visits the occupied levels alone. At each, that level's eligible
// hosts join the takers, and the gap of g levels up to the next occupied
// one is g rounds of the takers in id order; past the highest level the
// takers go round until the units run out. Only the last round can have
// more takers than units left, and there the lowest ids win. Cost is
// O(rounds + occupied levels visited · (words per row + takers)), plus one
// step per unit with keep. An out-of-range from excludes no host.
func (x *LoadIndex) fill(from, n int, elig HostSet, keep bool) (got int, top int32, part int) {
	x.seq, x.ids = x.seq[:0], x.ids[:0]
	clear(x.takers.w)
	fw, fb := -1, uint64(0)
	if from >= 0 && from < len(x.loads) {
		fw, fb = from>>6, uint64(1)<<(from&63)
	}
	for ld := x.minLoad; ld >= 0 && got < n; {
		top = ld
		row := x.rows[int(ld)*x.w:]
		joined := false
		for i := range x.takers.w {
			m := row[i] & elig.w[i]
			if i == fw {
				m &^= fb
			}
			if m != 0 {
				x.takers.w[i] |= m
				joined = true
			}
		}
		if joined {
			x.ids = x.ids[:0]
			for i, word := range x.takers.w {
				for ; word != 0; word &= word - 1 {
					x.ids = append(x.ids, i<<6+bits.TrailingZeros64(word))
				}
			}
		}
		next := x.above(ld + 1)
		for len(x.ids) > 0 && got < n && top != next {
			k := min(len(x.ids), n-got)
			if keep {
				x.seq = append(x.seq, x.ids[:k]...)
			}
			got += k
			if k < len(x.ids) {
				part = k
			} else {
				top++
			}
		}
		ld = next
	}
	return got, top, part
}

// Spread moves up to n work units off host from, each onto the least-loaded
// host in elig at that moment, lowest host id on ties, and returns how many
// moved: fewer than n only when from holds fewer or no host is eligible. The
// result is by contract that of n rounds of BestEligible + NoteMoved; from is
// never a destination, whatever elig says of it. An out-of-range from moves
// nothing and returns 0.
//
// It is fill — the same water-fill as Place — then one level write per
// taking host and one for from, and then the OnChange calls: one per host
// whose load changed, receivers in id order, from's last.
func (x *LoadIndex) Spread(from, n int, elig HostSet) int {
	if from < 0 || from >= len(x.loads) {
		return 0
	}
	moved, top, part := x.fill(from, min(n, int(x.loads[from])), elig, false)
	if moved == 0 {
		return 0
	}
	// A taker that joined at the last level and got no unit there stays
	// put; the rest rise. Compact x.ids to the risers, still in id order.
	raised := x.ids[:0]
	for i, h := range x.ids {
		nl := top
		if i < part {
			nl++
		}
		if x.move(h, nl) {
			raised = append(raised, h)
		}
	}
	x.move(from, x.loads[from]-int32(moved))
	for _, h := range raised {
		x.notify(h)
	}
	x.notify(from)
	return moved
}

// Place returns the receivers of n units leaving host from, in the order
// Spread(from, n, elig) would raise them, and moves nothing: the one pick
// rule of every path that places displaced work — least load, lowest id on
// ties, each pick counted before the next. Unlike Spread it does not cap n
// at from's load, since a caller's units need not all be counted there yet,
// and an out-of-range from excludes no host. It returns fewer than n hosts
// only when elig holds no host but from.
//
// It is fill — the same water-fill as Spread — and a copy of its result,
// which is all it allocates.
func (x *LoadIndex) Place(from, n int, elig HostSet) []int {
	x.fill(from, n, elig, true)
	return slices.Clone(x.seq)
}

// WorstEligible returns the host in elig with the highest non-zero load and
// that load, or (-1, 0) when no loaded host is eligible. Ties resolve to the
// lowest host id.
func (x *LoadIndex) WorstEligible(elig HostSet) (host, load int) {
	for ld := x.maxLoad; ld >= 1; ld = x.below(ld - 1) {
		if h := x.lowest(ld, elig); h >= 0 {
			return h, int(ld)
		}
	}
	return -1, 0
}

// BestEligible returns the host in elig with the lowest load and that load,
// or (-1, 0) when no host is eligible. Ties resolve to the lowest host id.
// The walk starts at the tracked minimum and visits occupied levels only.
func (x *LoadIndex) BestEligible(elig HostSet) (host, load int) {
	for ld := x.minLoad; ld >= 0; ld = x.above(ld + 1) {
		if h := x.lowest(ld, elig); h >= 0 {
			return h, int(ld)
		}
	}
	return -1, 0
}

// lowest returns the lowest host in elig at load ld, or -1.
func (x *LoadIndex) lowest(ld int32, elig HostSet) int {
	row := x.rows[int(ld)*x.w : int(ld+1)*x.w]
	for i, word := range row {
		if m := word & elig.w[i]; m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}
