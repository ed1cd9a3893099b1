package gs

import "slices"

// LoadIndex is the incremental per-host load table behind every scheduling
// target. Targets push deltas (NoteSpawn/NoteExit/NoteMoved) as placement
// changes happen, so reading a host's load — or finding the most/least
// loaded host — never rescans tasks. Hosts with equal load sit on an
// intrusive doubly-linked bucket list, and the index tracks the exact
// minimum and maximum load, which makes "worst eligible host" a walk down
// from the maximum and "best eligible host" a walk up from the minimum
// instead of an O(hosts) scan, and keeps the steady-state mutation path
// O(1) and allocation-free: the only growth is the bucket head array, which
// is amortised over the life of the index and never grows during a
// steady-state scheduling tick. Memory is O(hosts + maxLoad).
//
// Host ids index the table directly (the cluster assigns dense ids from 0),
// and every tie among equally loaded hosts resolves to the lowest host id,
// so index-driven decisions are a pure function of the load history.
type LoadIndex struct {
	loads []int32 // current load per host
	next  []int32 // intrusive bucket list: next host in same-load bucket
	prev  []int32 // previous host, -1 when head

	heads []int32 // head host per load value, -1 when empty
	fill  []int32 // Spread's per-level gather scratch, cap hosts

	minLoad int32 // lowest non-empty bucket (0 for an index of no hosts)
	maxLoad int32 // highest non-empty bucket
	total   int

	watchers []func(host int) // OnChange subscribers, in registration order
}

// NewLoadIndex returns an index covering hosts [0, hosts) all at load 0.
func NewLoadIndex(hosts int) *LoadIndex {
	// The four per-host int32 columns share one allocation, so the scratch
	// column costs an index that never calls Spread nothing.
	cols := make([]int32, 4*hosts)
	x := &LoadIndex{
		loads: cols[0*hosts : 1*hosts : 1*hosts],
		next:  cols[1*hosts : 2*hosts : 2*hosts],
		prev:  cols[2*hosts : 3*hosts : 3*hosts],
		fill:  cols[3*hosts : 3*hosts : 4*hosts],
		heads: make([]int32, 1, 16),
	}
	x.heads[0] = -1
	for h := hosts - 1; h >= 0; h-- {
		x.link(int32(h))
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

func (x *LoadIndex) unlink(h int32) {
	ld := x.loads[h]
	if x.prev[h] >= 0 {
		x.next[x.prev[h]] = x.next[h]
	} else {
		x.heads[ld] = x.next[h]
	}
	if x.next[h] >= 0 {
		x.prev[x.next[h]] = x.prev[h]
	}
}

func (x *LoadIndex) link(h int32) {
	ld := x.loads[h]
	head := x.heads[ld]
	x.next[h] = head
	x.prev[h] = -1
	if head >= 0 {
		x.prev[head] = h
	}
	x.heads[ld] = h
}

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
	h := int32(host)
	old := x.loads[h]
	nl := old + int32(delta)
	if nl < 0 {
		nl = 0
	}
	if nl == old {
		return
	}
	x.unlink(h)
	x.loads[h] = nl
	for int32(len(x.heads)) <= nl {
		x.heads = append(x.heads, -1)
	}
	x.link(h)
	x.total += int(nl - old)
	// Both cursors stay exact: a new extreme moves its cursor there; the
	// host leaving the old extreme's bucket empty walks the cursor to the
	// next non-empty one, which is at most |delta| away (the host itself).
	if nl > x.maxLoad {
		x.maxLoad = nl
	} else if old == x.maxLoad {
		for x.heads[x.maxLoad] < 0 {
			x.maxLoad--
		}
	}
	if nl < x.minLoad {
		x.minLoad = nl
	} else if old == x.minLoad {
		for x.heads[x.minLoad] < 0 {
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
// eligible host at that moment, lowest host id on ties, and returns how many
// moved: fewer than n only when from holds fewer or no host is eligible. The
// result is by contract that of n rounds of BestEligible + NoteMoved; from is
// never a destination, whatever elig says of it.
//
// It is one water-fill, not n searches: every eligible host on the lowest
// level takes one unit, which puts it in the next level's bucket, and the
// fill goes up a level. Only the last level can have more takers than units
// left, and there the lowest ids win. Cost is O(units moved + hosts walked
// past), and from's own bucket changes once.
func (x *LoadIndex) Spread(from, n int, elig []bool) int {
	if from < 0 || from >= len(x.loads) {
		return 0
	}
	if have := int(x.loads[from]); n > have {
		n = have
	}
	moved := 0
	for ld := x.minLoad; moved < n && ld <= x.maxLoad; ld++ {
		level := x.fill[:0]
		for h := x.heads[ld]; h >= 0; h = x.next[h] {
			if int(h) != from && (elig == nil || elig[h]) {
				level = append(level, h)
			}
		}
		if left := n - moved; len(level) > left {
			slices.Sort(level)
			level = level[:left]
		}
		for _, h := range level {
			x.Add(int(h), 1)
		}
		moved += len(level)
	}
	x.Add(from, -moved)
	return moved
}

// WorstEligible returns the eligible host with the highest non-zero load
// and that load, or (-1, 0) when no loaded host is eligible. elig may be
// nil (every host eligible); otherwise elig[h] gates host h. Ties resolve
// to the lowest host id, walking the bucket at each load level.
func (x *LoadIndex) WorstEligible(elig []bool) (host, load int) {
	for ld := x.maxLoad; ld >= 1; ld-- {
		best := int32(-1)
		for h := x.heads[ld]; h >= 0; h = x.next[h] {
			if elig != nil && !elig[h] {
				continue
			}
			if best < 0 || h < best {
				best = h
			}
		}
		if best >= 0 {
			return int(best), int(ld)
		}
	}
	return -1, 0
}

// BestEligible returns the eligible host with the lowest load and that
// load, or (-1, 0) when no host is eligible. Ties resolve to the lowest
// host id. The walk starts at the tracked minimum, so the empty levels
// below the least-loaded host cost nothing.
func (x *LoadIndex) BestEligible(elig []bool) (host, load int) {
	for ld := x.minLoad; ld <= x.maxLoad; ld++ {
		best := int32(-1)
		for h := x.heads[ld]; h >= 0; h = x.next[h] {
			if elig != nil && !elig[h] {
				continue
			}
			if best < 0 || h < best {
				best = h
			}
		}
		if best >= 0 {
			return int(best), int(ld)
		}
	}
	return -1, 0
}
