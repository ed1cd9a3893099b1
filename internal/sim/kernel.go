package sim

import (
	"fmt"
	"sort"
)

// event is a single entry on the kernel's event queue, stored by value in
// an implicit 4-ary min-heap. An event either wakes a blocked Proc
// (p != nil) or invokes a kernel-context callback (fn != nil). Callbacks
// run inline in the event loop and must not block.
//
// Events are plain records, not heap allocations: Schedule and the proc
// wake path are zero-alloc in steady state (see DESIGN.md §7). Cancelation
// state lives out-of-line in the kernel's cell pool (cell >= 0) because
// heap records move as the heap sifts; cell == -1 marks a non-cancelable
// event (Signal/Broadcast/Interrupt/Spawn wakes, whose staleness is
// handled by the proc generation check alone).
type event struct {
	at   Time
	prio uint64 // tie-break priority (0 unless a tie-breaker is installed)
	seq  uint64 // final tie-breaker: schedule order
	gen  uint64 // wake generation the event targets (stale wakes are skipped)
	fn   func()
	p    *Proc
	cell int32 // cancel-cell index, -1 when the event cannot be canceled
}

// eventBefore is the queue's total order: (time, tie-break prio, seq).
// seq is unique per kernel, so the order is total and the heap's arity
// cannot influence dispatch order.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// cancelCell is the out-of-line cancelation state of one in-flight
// cancelable event. Cells are pooled and recycled through a free list; the
// stamp increments at every recycle so a stale Timer handle (canceling
// after its event already fired) can never touch the slot's next tenant.
type cancelCell struct {
	stamp    uint32
	canceled bool
}

// Timer is a handle to a scheduled cancelable event. The zero Timer is
// valid and inert. Timers are plain values: copying one copies the handle,
// not the event.
type Timer struct {
	k     *Kernel
	cell  int32
	stamp uint32
}

// Cancel prevents the timer's event from firing. Canceling the zero Timer,
// an already fired, or an already canceled timer is a no-op.
func (t Timer) Cancel() {
	if t.k == nil {
		return
	}
	c := &t.k.cells[t.cell]
	if c.stamp == t.stamp {
		c.canceled = true
	}
}

// heapArity is the fan-out of the implicit event heap. Four keeps the tree
// half as deep as a binary heap (fewer sift levels per push/pop) while the
// children of a node still share one or two cache lines.
const heapArity = 4

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event // implicit 4-ary min-heap ordered by eventBefore
	running *Proc
	procs   []*Proc // live procs only: a finished proc is dropped in dispatch
	blocked int     // how many of procs are in pBlocked, kept at the transitions
	nextPID int
	stopped bool
	closed  bool

	// Cancel-cell pool. freeCells is the free list; in steady state every
	// schedule/pop pair recycles a cell and neither slice grows.
	cells     []cancelCell
	freeCells []int32

	// externalWaits counts AwaitExternal calls (external.go): real-world
	// I/O completions the virtual clock paused for.
	externalWaits uint64

	// tiebreak, when non-nil, assigns each event a pseudo-random priority
	// that precedes seq in the heap ordering. Equal-time events are then
	// dispatched in a seed-determined permutation instead of schedule order:
	// one seed is one reproducible schedule, and a sweep of seeds is a
	// search over interleavings (the chaos explorer's kernel hook).
	tiebreak *RNG
}

// NewKernel returns a kernel with the clock at time zero and no events.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetTieBreakSeed installs a seeded tie-breaker: events scheduled for the
// same virtual time run in a pseudo-random order that is a pure function of
// the seed and the schedule history. Without a tie-breaker (the default),
// equal-time events run in schedule order, bit-identical to prior behavior.
// Install before scheduling anything; re-seeding mid-run starts a fresh
// stream for events scheduled afterwards.
func (k *Kernel) SetTieBreakSeed(seed uint64) { k.tiebreak = NewRNG(seed) }

// nextPrio draws the tie-break priority for a newly scheduled event.
func (k *Kernel) nextPrio() uint64 {
	if k.tiebreak == nil {
		return 0
	}
	return k.tiebreak.Uint64()
}

// Stop makes Run return after the event currently being processed.
func (k *Kernel) Stop() { k.stopped = true }

// EventsScheduled reports how many events have been scheduled since the
// kernel was created. Every Schedule/ScheduleAt/wake consumes one sequence
// number, so this is the natural throughput denominator for benchmarks.
func (k *Kernel) EventsScheduled() uint64 { return k.seq }

// heapPush inserts e, sifting up with the hole-propagation idiom: parents
// move down until e's slot is found, then e is written once.
func (k *Kernel) heapPush(e event) {
	// lint:alloc amortized heap growth; steady state reuses capacity (BenchmarkKernelScheduleDispatch measures 0 allocs/op)
	h := append(k.events, event{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !eventBefore(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.events = h
}

// heapPop removes and returns the minimum event.
func (k *Kernel) heapPop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the fn/p references
	h = h[:n]
	k.events = h
	if n > 0 {
		i := 0
		for {
			first := i*heapArity + 1
			if first >= n {
				break
			}
			min := first
			end := first + heapArity
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventBefore(&h[c], &h[min]) {
					min = c
				}
			}
			if !eventBefore(&h[min], &last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return top
}

// newCell takes a cancel cell from the free list (or grows the pool) and
// returns its index and current stamp.
func (k *Kernel) newCell() (int32, uint32) {
	if n := len(k.freeCells); n > 0 {
		idx := k.freeCells[n-1]
		k.freeCells = k.freeCells[:n-1]
		return idx, k.cells[idx].stamp
	}
	k.cells = append(k.cells, cancelCell{})
	return int32(len(k.cells) - 1), 0
}

// retireCell reads a popped event's canceled flag and recycles its cell.
// The stamp bump invalidates every outstanding Timer handle to the slot.
func (k *Kernel) retireCell(idx int32) (canceled bool) {
	c := &k.cells[idx]
	canceled = c.canceled
	c.canceled = false
	c.stamp++
	k.freeCells = append(k.freeCells, idx)
	return canceled
}

// Schedule arranges for fn to run in kernel context at now+d. fn must not
// block; it may spawn procs, signal conditions and schedule further events.
func (k *Kernel) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.scheduleAt(k.now+d, fn)
}

// ScheduleAt is Schedule with an absolute virtual time. Times in the past
// are clamped to now.
func (k *Kernel) ScheduleAt(at Time, fn func()) Timer {
	if at < k.now {
		at = k.now
	}
	return k.scheduleAt(at, fn)
}

func (k *Kernel) scheduleAt(at Time, fn func()) Timer {
	k.seq++
	idx, stamp := k.newCell()
	k.heapPush(event{at: at, prio: k.nextPrio(), seq: k.seq, fn: fn, cell: idx})
	return Timer{k: k, cell: idx, stamp: stamp}
}

// scheduleWake enqueues a non-cancelable wake event for p targeting its
// current blocking generation (Cond signals, interrupts, spawn starts).
// Staleness is handled entirely by the generation check at dispatch.
func (k *Kernel) scheduleWake(p *Proc, at Time, gen uint64) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	k.heapPush(event{at: at, prio: k.nextPrio(), seq: k.seq, p: p, gen: gen, cell: -1})
}

// scheduleWakeTimer enqueues a cancelable wake for p — the timer wake a
// blocking call owns (Sleep, Yield) and cancels when the proc is woken by
// something else, so the leftover event cannot fire late.
func (k *Kernel) scheduleWakeTimer(p *Proc, at Time, gen uint64) Timer {
	if at < k.now {
		at = k.now
	}
	k.seq++
	idx, stamp := k.newCell()
	k.heapPush(event{at: at, prio: k.nextPrio(), seq: k.seq, p: p, gen: gen, cell: idx})
	return Timer{k: k, cell: idx, stamp: stamp}
}

// Run processes events until the queue is empty or Stop is called. It
// returns the number of procs that remain blocked (a non-zero return with an
// empty queue usually indicates a deadlock in the simulated system).
func (k *Kernel) Run() int {
	return k.run(-1)
}

// RunUntil processes all events with timestamps <= deadline, then sets the
// clock to deadline. It returns the number of procs still blocked.
func (k *Kernel) RunUntil(deadline Time) int {
	n := k.run(deadline)
	if k.now < deadline {
		k.now = deadline
	}
	return n
}

func (k *Kernel) run(deadline Time) int {
	if k.closed {
		panic("sim: Run on a closed kernel")
	}
	k.stopped = false
	for len(k.events) > 0 && !k.stopped {
		if deadline >= 0 && k.events[0].at > deadline {
			break
		}
		e := k.heapPop()
		if e.cell >= 0 && k.retireCell(e.cell) {
			continue // canceled events do not advance the clock
		}
		if e.at > k.now {
			k.now = e.at
		}
		if e.fn != nil {
			e.fn()
			continue
		}
		p := e.p
		if p.state != pBlocked || p.gen != e.gen {
			continue // stale wake
		}
		k.dispatch(p)
	}
	return k.blocked
}

// dispatch switches to p's coroutine and returns when p blocks again or
// its body returns. The switch is direct (iter.Pull's coroswitch), not a
// scheduler wake-up, and exactly one of kernel and proc runs at any time,
// so the schedule stays deterministic.
func (k *Kernel) dispatch(p *Proc) {
	k.running = p
	p.state = pRunning
	k.blocked--
	if p.w == nil {
		p.w = getWorker()
		p.w.p = p
	}
	p.w.next()
	k.running = nil
	if p.state != pDone {
		return
	}
	putWorker(p.w)
	k.retire(p)
	if p.panicked != nil {
		panic(fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", p.name, p.panicked, p.stack)) // lint:alloc panic path, simulation is already dead
	}
	p.doneCond.Broadcast()
}

// retire forgets a finished proc: the last live proc takes its slot in
// k.procs, so a long session's Run returns and Blocked walks cost what is
// live, not what was ever spawned.
func (k *Kernel) retire(p *Proc) {
	p.w, p.body = nil, nil
	n := len(k.procs) - 1
	last := k.procs[n]
	k.procs[p.idx], last.idx = last, p.idx
	k.procs[n] = nil
	k.procs = k.procs[:n]
}

// Close ends the kernel's life: every proc still parked is unwound — its
// deferred calls run, and a blocking call made by one of them continues
// the unwind instead of blocking — and its worker goes back to the pool;
// queued events are discarded. Without Close a parked proc's coroutine,
// and the whole simulation graph its stack references, is never reclaimed.
// Close is idempotent and must not be called from inside a proc; Run after
// Close panics.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	if k.running != nil {
		panic(fmt.Sprintf("sim: Close called from proc %q", k.running.name))
	}
	k.closed = true
	// A deferred call may Spawn; such a proc lands at the end of k.procs
	// and is retired below without ever starting.
	for len(k.procs) > 0 {
		p := k.procs[len(k.procs)-1]
		if p.w != nil {
			k.dispatch(p) // block() panics closeUnwind as soon as it resumes
			continue
		}
		p.state = pDone
		k.blocked--
		k.retire(p)
	}
	k.events = nil
}

// Blocked returns the names of procs that are currently blocked, sorted.
// Intended for debugging deadlocks in tests.
func (k *Kernel) Blocked() []string {
	var names []string
	for _, p := range k.procs {
		if p.state == pBlocked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}

// Running returns the proc currently executing, or nil when the kernel
// itself is running (event callbacks, in-between events).
func (k *Kernel) Running() *Proc { return k.running }
