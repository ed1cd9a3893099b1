package gs

import "math/bits"

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
// with the eligibility set and a trailing-zero count. The steady-state
// mutation path is O(1) and allocation-free: the only growth is a new row
// when a host first reaches a load, amortised over the life of the index.
// Memory is (maxLoad+1)·⌈hosts/64⌉ words, which is what buys the lowest id
// of a level for one word operation instead of a walk over its members.
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

	minLoad int32 // lowest non-empty level (0 for an index of no hosts)
	maxLoad int32 // highest non-empty level
	total   int

	watchers []func(host int) // OnChange subscribers, in registration order
}

// NewLoadIndex returns an index covering hosts [0, hosts) all at load 0.
func NewLoadIndex(hosts int) *LoadIndex {
	w := (hosts + 63) >> 6
	x := &LoadIndex{
		loads: make([]int32, hosts),
		w:     w,
		rows:  make([]uint64, w, 16*w),
		count: make([]int32, 1, 16),
	}
	for h := 0; h < hosts; h++ {
		x.rows[h>>6] |= 1 << (h & 63)
	}
	x.count[0] = int32(hosts)
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
// zero) calls no one.
func (x *LoadIndex) OnChange(fn func(host int)) {
	x.watchers = append(x.watchers, fn)
}

// Add applies a signed delta to host's load. Negative results clamp to
// zero — a target that double-counts an exit has a bug the cross-check
// test catches; the index itself must stay well-formed either way.
func (x *LoadIndex) Add(host, delta int) {
	if host < 0 || host >= len(x.loads) || delta == 0 {
		return
	}
	old := x.loads[host]
	nl := old + int32(delta)
	if nl < 0 {
		nl = 0
	}
	if nl == old {
		return
	}
	word, bit := host>>6, uint64(1)<<(host&63)
	x.rows[int(old)*x.w+word] &^= bit
	x.count[old]--
	for int32(len(x.count)) <= nl {
		x.count = append(x.count, 0)
		for i := 0; i < x.w; i++ {
			x.rows = append(x.rows, 0)
		}
	}
	x.rows[int(nl)*x.w+word] |= bit
	x.count[nl]++
	x.loads[host] = nl
	x.total += int(nl - old)
	// Both cursors stay exact: a new extreme moves its cursor there; the
	// host leaving the old extreme's level empty walks the cursor to the
	// next non-empty one, which is at most |delta| away (the host itself).
	if nl > x.maxLoad {
		x.maxLoad = nl
	} else if old == x.maxLoad {
		for x.count[x.maxLoad] == 0 {
			x.maxLoad--
		}
	}
	if nl < x.minLoad {
		x.minLoad = nl
	} else if old == x.minLoad {
		for x.count[x.minLoad] == 0 {
			x.minLoad++
		}
	}
	for _, fn := range x.watchers {
		fn(host)
	}
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

// Spread moves up to n work units off host from, each onto the least-loaded
// host in elig at that moment, lowest host id on ties, and returns how many
// moved: fewer than n only when from holds fewer or no host is eligible. The
// result is by contract that of n rounds of BestEligible + NoteMoved; from is
// never a destination, whatever elig says of it.
//
// It is one water-fill, not n searches: every eligible host on the lowest
// level takes one unit, which puts it on the next level's row, and the fill
// goes up a level. Only the last level can have more takers than units left,
// and there the lowest ids win, which is the order the row's bits come out
// in. Each word is read before its hosts are raised, so a host takes at most
// one unit per level. Cost is O(units moved + words of the levels walked),
// and from's own level changes once.
func (x *LoadIndex) Spread(from, n int, elig HostSet) int {
	if from < 0 || from >= len(x.loads) {
		return 0
	}
	if have := int(x.loads[from]); n > have {
		n = have
	}
	fw, fb := from>>6, uint64(1)<<(from&63)
	moved := 0
	for ld := x.minLoad; moved < n && ld <= x.maxLoad; ld++ {
		if x.count[ld] == 0 {
			continue
		}
		row := int(ld) * x.w
		for i := 0; i < x.w && moved < n; i++ {
			m := x.rows[row+i] & elig.w[i]
			if i == fw {
				m &^= fb
			}
			for ; m != 0 && moved < n; m &= m - 1 {
				x.Add(i<<6+bits.TrailingZeros64(m), 1)
				moved++
			}
		}
	}
	x.Add(from, -moved)
	return moved
}

// WorstEligible returns the host in elig with the highest non-zero load and
// that load, or (-1, 0) when no loaded host is eligible. Ties resolve to the
// lowest host id.
func (x *LoadIndex) WorstEligible(elig HostSet) (host, load int) {
	for ld := x.maxLoad; ld >= 1; ld-- {
		if x.count[ld] == 0 {
			continue
		}
		if h := x.lowest(ld, elig); h >= 0 {
			return h, int(ld)
		}
	}
	return -1, 0
}

// BestEligible returns the host in elig with the lowest load and that load,
// or (-1, 0) when no host is eligible. Ties resolve to the lowest host id.
// The walk starts at the tracked minimum, so the empty levels below the
// least-loaded host cost nothing.
func (x *LoadIndex) BestEligible(elig HostSet) (host, load int) {
	for ld := x.minLoad; ld <= x.maxLoad; ld++ {
		if x.count[ld] == 0 {
			continue
		}
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
