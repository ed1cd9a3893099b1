package sim

import (
	"cmp"
	"fmt"
	"sort"
)

// event is a single entry on the kernel's event queue, stored by value in
// the head slot or in an implicit 4-ary min-heap. An event either wakes a
// blocked Proc (p != nil) or invokes a kernel-context callback (fn != nil).
// Callbacks run inline in the event loop and must not block.
//
// Events are plain records, not heap allocations: Schedule and the proc
// wake path are zero-alloc in steady state (see DESIGN.md §7). Cancelation
// state lives out-of-line in the kernel's cell pool (cell >= 0) because
// records move between the head slot and the heap, and within the heap as
// it sifts; cell == -1 marks a non-cancelable event (Signal/Broadcast/
// Interrupt/Spawn wakes, whose staleness is handled by the proc generation
// check alone).
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
// seq is unique per kernel, so the order is total: neither the heap's arity
// nor the head slot in front of it can influence dispatch order.
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
	now Time
	seq uint64
	// The event queue is the head slot plus a heap. While hasHead, head
	// precedes every heap event under eventBefore, so it is the queue's
	// minimum. Most events are scheduled as the next one to run — a proc's
	// wake after its compute, a frame's delivery — and take the slot, so
	// they are popped without ever sifting through the heap.
	head    event
	hasHead bool
	events  []event // implicit 4-ary min-heap ordered by eventBefore
	running *Proc
	procs   []*Proc // live procs only: a finished proc is dropped in dispatch
	blocked int     // how many of procs are in pBlocked, kept at the transitions
	stopped bool
	closed  bool
	// reserving is set while a proc takes its first event in place
	// (blockOn, k.walking) and no wake has been aimed at it yet: the first
	// one that is goes into wake, reserved rather than queued.
	reserving bool

	// deadline is the running RunUntil's (-1 under Run): a proc walking
	// in place honours it as the run loop does.
	deadline Time
	// walking is the proc whose block is running events on its own stack
	// (resumeInPlace), nil otherwise; held is a panic one of those events
	// raised, kept for dispatch to re-raise on the kernel's side.
	walking *Proc
	held    any
	wake    Slot // the wake reserving reserved; zero otherwise

	// switches counts coroutine switches into procs (dispatch).
	switches uint64

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

// EventsScheduled reports how many events have been scheduled or skipped
// since the kernel was created. Every Schedule/ScheduleAt/wake consumes one
// sequence number, and so does every event a proc's fast path takes without
// queueing it (Reserve), so the count is the same whichever path ran; it is
// the natural throughput denominator for benchmarks.
func (k *Kernel) EventsScheduled() uint64 { return k.seq }

// ProcSwitches reports how many times the kernel has switched into a proc's
// coroutine. A proc whose own wake is the next event resumes in place and
// costs no switch (see resumeInPlace).
func (k *Kernel) ProcSwitches() uint64 { return k.switches }

// push queues e. An event that precedes the queue's minimum takes the head
// slot, and the event it displaces (if any) goes into the heap in its place;
// any other event goes into the heap. The heap insertion sifts up with the
// hole-propagation idiom: parents move down until the event's slot is
// found, then it is written once.
func (k *Kernel) push(e event) {
	if k.hasHead {
		if eventBefore(&e, &k.head) {
			e, k.head = k.head, e
		}
	} else if len(k.events) == 0 || eventBefore(&e, &k.events[0]) {
		k.head, k.hasHead = e, true
		return
	}
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

// pop removes and returns the queue's minimum: the head if there is one.
func (k *Kernel) pop() event {
	if !k.hasHead {
		return k.heapPop()
	}
	e := k.head
	k.head, k.hasHead = event{}, false // release the fn/p references
	return e
}

// peek returns the queue's minimum, which pop would return next; the queue
// must not be empty.
func (k *Kernel) peek() *event {
	if k.hasHead {
		return &k.head
	}
	return &k.events[0]
}

// queued returns how many events are queued.
func (k *Kernel) queued() int {
	if k.hasHead {
		return len(k.events) + 1
	}
	return len(k.events)
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
	k.push(event{at: at, prio: k.nextPrio(), seq: k.seq, fn: fn, cell: idx})
	return Timer{k: k, cell: idx, stamp: stamp}
}

// scheduleWake enqueues a non-cancelable wake event for p targeting its
// current blocking generation (Cond signals, interrupts, spawn starts).
// Staleness is handled entirely by the generation check at dispatch. The
// first wake of a proc taking its event in place is reserved instead
// (blockOn), with the same draws.
func (k *Kernel) scheduleWake(p *Proc, at Time, gen uint64) {
	s := k.Reserve(at)
	if k.reserving && p == k.walking {
		k.reserving, k.wake = false, s
		return
	}
	k.queueWake(s, p, gen)
}

// queueWake queues p's non-cancelable wake, aimed at generation gen, into
// the reserved place s.
func (k *Kernel) queueWake(s Slot, p *Proc, gen uint64) {
	k.push(event{at: s.at, prio: s.prio, seq: s.seq, p: p, gen: gen, cell: -1})
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
	k.push(event{at: at, prio: k.nextPrio(), seq: k.seq, p: p, gen: gen, cell: idx})
	return Timer{k: k, cell: idx, stamp: stamp}
}

// Slot is a place in dispatch order taken ahead of its event: the time, and
// the seq and tie-break priority that scheduling an event for that time drew
// when the slot was reserved. The zero Slot is no place.
type Slot struct {
	at   Time
	prio uint64
	seq  uint64
}

// Reserve takes the place that an event scheduled now for at would take —
// one seq and one tie-break draw, at exactly the point in the schedule
// history where Schedule would draw them — and queues nothing. ScheduleSlot
// queues a callback into the place; Cond.WaitSlot lets the waiting proc take
// it in place when it is provably the next event.
func (k *Kernel) Reserve(at Time) Slot {
	if at < k.now {
		at = k.now
	}
	k.seq++
	return Slot{at: at, prio: k.nextPrio(), seq: k.seq}
}

// Compare orders two places as the queue dispatches their events, on the
// full (time, tie-break priority, seq) key: -1 if s runs before t, +1 if
// after, 0 only for the same place. Places reserved ahead and sorted by
// Compare are in the order the kernel would dispatch the same events
// scheduled up front, so a caller may queue each only when the one before
// it runs.
func (s Slot) Compare(t Slot) int {
	if c := cmp.Compare(s.at, t.at); c != 0 {
		return c
	}
	if c := cmp.Compare(s.prio, t.prio); c != 0 {
		return c
	}
	return cmp.Compare(s.seq, t.seq)
}

// ScheduleSlot queues fn into the reserved place s. The event is ordered
// exactly as the one Schedule would have queued when s was reserved.
func (k *Kernel) ScheduleSlot(s Slot, fn func()) Timer {
	idx, stamp := k.newCell()
	k.push(event{at: s.at, prio: s.prio, seq: s.seq, fn: fn, cell: idx})
	return Timer{k: k, cell: idx, stamp: stamp}
}

// next reports whether an event at `at` would provably be the next one the
// kernel dispatches: it is not stopped or closed, at is within the RunUntil
// deadline, and nothing is queued at or before at, live, canceled or stale.
// Nothing else can run before such an event, so a proc may take it itself.
func (k *Kernel) next(at Time) bool {
	if k.stopped || k.closed || (k.deadline >= 0 && at > k.deadline) {
		return false
	}
	if k.hasHead {
		return k.head.at > at
	}
	return len(k.events) == 0 || k.events[0].at > at
}

// account is the one step every taken event goes through, whichever path
// takes it (run, resumeInPlace, take): the event's cancel cell, if it has
// one (cell >= 0), is retired, and unless the event was canceled the clock
// moves to at. It reports whether the event is live.
func (k *Kernel) account(at Time, cell int32) bool {
	if cell >= 0 && k.retireCell(cell) {
		return false // canceled events do not advance the clock
	}
	if at > k.now {
		k.now = at
	}
	return true
}

// take accounts for the event in slot s as dispatched, for a proc that
// proved it next and did not queue it: the clock moves to s.at and, when the
// event is p's own wake (p != nil), p's generation moves on as block's does.
// With the draws Reserve took, this is all the state the queue round trip
// would have changed, so neither path can be told from the other.
func (k *Kernel) take(s Slot, p *Proc) {
	k.account(s.at, -1)
	if p != nil {
		p.gen++
	}
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
	k.deadline = deadline
	for k.queued() > 0 && !k.stopped {
		if deadline >= 0 && k.peek().at > deadline {
			break
		}
		e := k.pop()
		if !k.account(e.at, e.cell) {
			continue
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
// so the schedule stays deterministic. A callback that panicked while p
// ran it in place is re-raised here, with its own value, and p stays
// parked.
func (k *Kernel) dispatch(p *Proc) {
	k.running = p
	p.state = pRunning
	k.blocked--
	k.switches++
	if p.w == nil {
		p.w = getWorker()
		p.w.p = p
	}
	p.w.next()
	k.running = nil
	if r := k.held; r != nil {
		k.held = nil
		panic(r)
	}
	if p.state != pDone {
		return
	}
	putWorker(p.w)
	k.retire(p)
	if p.panicked != nil {
		panic(fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", p.name, p.panicked, p.stack)) // lint:alloc panic path, simulation is already dead
	}
}

// resumeInPlace runs, on the stack of p (which has just blocked), the loop
// iterations Kernel.run would run next, for as long as the head event is a
// canceled one or a callback, honouring Stop and the RunUntil deadline. If
// that walk ends at p's own live wake, the wake is popped and p is made
// running again without a coroutine switch; the result is true. Otherwise
// it returns false with the head event untouched, p yields, and run goes on
// from that event. Each event the walk takes is popped, retired and clocked
// exactly as run would take it, and the walk itself schedules nothing, so
// dispatch order and seq assignment cannot tell the two paths apart. A
// callback's panic is held for dispatch to re-raise.
func (k *Kernel) resumeInPlace(p *Proc) bool {
	k.running = nil
	k.walking = p
	for k.queued() > 0 && !k.stopped {
		h := k.peek()
		if k.deadline >= 0 && h.at > k.deadline {
			break
		}
		if h.fn == nil && (h.p != p || h.gen != p.gen) && (h.cell < 0 || !k.cells[h.cell].canceled) {
			break // someone else's live wake (or a stale one): run dispatches it
		}
		e := k.pop()
		if !k.account(e.at, e.cell) {
			continue
		}
		if e.fn == nil {
			k.walking = nil
			k.running = p
			p.state = pRunning
			k.blocked--
			return true
		}
		if !k.callInPlace(e.fn) {
			break
		}
	}
	k.walking = nil
	return false
}

// callInPlace runs a callback for resumeInPlace and reports whether it
// returned; a panic is stored in k.held instead of unwinding p's stack.
func (k *Kernel) callInPlace(fn func()) (returned bool) {
	defer k.holdPanic()
	fn()
	return true
}

// holdPanic is callInPlace's deferred recover.
func (k *Kernel) holdPanic() {
	if r := recover(); r != nil {
		k.held = r
	}
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
// Close is idempotent and must not be called from inside a proc, nor from a
// callback that a blocked proc is running in place (resumeInPlace: the
// proc cannot be unwound from its own stack); Run after Close panics.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	if k.running != nil {
		panic(fmt.Sprintf("sim: Close called from proc %q", k.running.name))
	}
	if k.walking != nil {
		panic(fmt.Sprintf("sim: Close called from a callback proc %q is running in place", k.walking.name))
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
	k.head, k.hasHead, k.events = event{}, false, nil
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
