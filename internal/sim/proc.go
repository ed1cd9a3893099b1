package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

type procState int

const (
	pBlocked procState = iota // waiting for a wake event
	pRunning                  // currently executing
	pDone                     // body returned
)

// Interrupted is the error returned by blocking primitives when the proc
// received an asynchronous interrupt (see Proc.Interrupt). The migration
// systems use interrupts to model Unix signals: a migration request can
// reach a VP at an arbitrary point of its execution.
type Interrupted struct {
	// Reason is the value passed to Interrupt, typically identifying the
	// signal source (e.g. a migration command).
	Reason any
}

func (e *Interrupted) Error() string { return fmt.Sprintf("sim: interrupted: %v", e.Reason) }

// IsInterrupted reports whether err is (or wraps) an *Interrupted error and
// returns it.
func IsInterrupted(err error) (*Interrupted, bool) {
	var ie *Interrupted
	if errors.As(err, &ie) {
		return ie, true
	}
	return nil, false
}

// Proc is a simulated thread of control. Its body runs on a pull-coroutine
// (iter.Pull) that the kernel switches to directly, the way UPVM's library
// switches ULPs without going through the OS scheduler. The kernel runs at
// most one proc at a time, so proc code needs no locking when touching
// shared simulation state.
type Proc struct {
	k     *Kernel
	id    int
	idx   int // position in k.procs while the proc is live
	name  string
	state procState
	gen   uint64 // increments around every block; stale wakes are dropped
	// w is the coroutine the body runs on: taken from the pool at the first
	// dispatch, returned when the body has returned.
	w        *worker
	body     func(*Proc)
	panicked any
	stack    []byte // the body's own stack at the panic
	doneCond *Cond

	intrPending bool
	intrReason  any
	intrMasked  bool
}

// worker is a long-lived pull-coroutine that runs one proc body after
// another. Between bodies it is parked in the pool's free list.
type worker struct {
	next  func() (struct{}, bool) // kernel side: switch to the coroutine
	yield func(struct{}) bool     // proc side: switch back to the kernel
	p     *Proc                   // current tenant
}

// pool is the free list of parked workers, shared by every kernel in the
// process. A mutex-guarded slice rather than a sync.Pool: nothing empties
// it behind the program's back, so allocation counts repeat from run to
// run. Workers are never stopped; the pool holds at most as many as the
// process ever had procs live at one time.
var pool struct {
	sync.Mutex
	free []*worker
}

func getWorker() *worker {
	pool.Lock()
	if n := len(pool.free); n > 0 {
		w := pool.free[n-1]
		pool.free[n-1] = nil
		pool.free = pool.free[:n-1]
		pool.Unlock()
		return w
	}
	pool.Unlock()
	w := &worker{}                // lint:alloc pool miss: one worker per peak-concurrent proc, not per switch
	w.next, _ = iter.Pull(w.loop) // lint:alloc the same miss; the worker is never stopped, so stop is dropped
	return w
}

func putWorker(w *worker) {
	w.p = nil
	pool.Lock()
	pool.free = append(pool.free, w)
	pool.Unlock()
}

// loop is the coroutine's body: run the tenant, hand control back, and wake
// up with the next tenant installed.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.run(w.p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// closeUnwind is the panic value Kernel.Close unwinds a parked proc with.
type closeUnwind struct{}

// run executes p's body to completion. A panic stops here, so the worker
// survives its tenant; the kernel re-raises a real one from dispatch.
func (w *worker) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, closing := r.(closeUnwind); !closing {
				p.panicked = r
				p.stack = debug.Stack() // panic path: the simulation is already dead
			}
		}
		p.state = pDone
	}()
	p.body(p)
}

// Spawn creates a proc named name executing body and schedules it to start
// at the current virtual time: after the events already queued for now, or,
// under a tie-break seed, wherever its drawn priority places it among them.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt creates a proc that starts at the given absolute virtual time.
func (k *Kernel) SpawnAt(at Time, name string, body func(*Proc)) *Proc {
	k.nextPID++
	p := &Proc{
		k:     k,
		id:    k.nextPID,
		idx:   len(k.procs),
		name:  name,
		state: pBlocked,
		body:  body,
	}
	p.doneCond = NewCond(k)
	k.procs = append(k.procs, p)
	k.blocked++
	k.scheduleWake(p, at, p.gen)
	return p
}

// Name returns the proc's name, fixed at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's unique id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the proc's body has returned.
func (p *Proc) Done() bool { return p.state == pDone }

// block suspends the proc until a wake event targeting the current
// generation fires. wake, when non-zero, is the timer wake belonging to
// this block; it is canceled if the proc is woken by something else (e.g. an
// interrupt) so it cannot fire late and corrupt a future block. Canceling
// the wake that actually fired is a no-op (its cancel cell was already
// recycled), so the unconditional Cancel below is safe. When p's own wake
// is the next event, p resumes in place and never yields (resumeInPlace).
func (p *Proc) block(wake Timer) error {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: blocking call on proc %q from outside its own context", p.name)) // lint:alloc panic path, a blocking call from the wrong context is a bug
	}
	if p.k.closed {
		panic(closeUnwind{}) // a blocking call in a deferred function continues the unwind
	}
	if p.intrPending && !p.intrMasked {
		wake.Cancel()
		return p.takeInterrupt()
	}
	p.state = pBlocked
	p.k.blocked++
	return p.await(p.k.resumeInPlace(p), wake)
}

// await ends a block whose walk has stopped: unless the walk resumed p, p
// yields until its wake is dispatched. Then any wake aimed at the old
// generation is stale, and a deliverable interrupt is returned.
func (p *Proc) await(resumed bool, wake Timer) error {
	if !resumed {
		p.w.yield(struct{}{})
		if p.k.closed {
			panic(closeUnwind{})
		}
	}
	p.gen++ // any wake events targeting the old generation are now stale
	wake.Cancel()
	return p.interrupted()
}

// interrupted takes a deliverable (unmasked) pending interrupt as an error;
// it returns nil when there is none.
func (p *Proc) interrupted() error {
	if p.intrPending && !p.intrMasked {
		return p.takeInterrupt()
	}
	return nil
}

// canTake reports whether p may take an event at `at` itself instead of
// blocking for it: p is running, has no deliverable interrupt (block would
// return it without waiting), and the event would be the next one
// dispatched (Kernel.next).
func (p *Proc) canTake(at Time) bool {
	return p.k.running == p && !(p.intrPending && !p.intrMasked) && p.k.next(at)
}

// blockOn is block for a proc whose first event, fn reserved into slot s,
// canTake has just proven next: the same steps without the queue. p parks
// as resumeInPlace parks it (Running() == nil, pBlocked), the clock moves
// to s and fn runs on p's stack. The first wake fn aims at p is reserved,
// not queued (scheduleWake). If p may take that wake as well, p resumes.
// Otherwise — fn queued an event at or before it, stopped the kernel,
// interrupted p, panicked or woke nobody — the wake goes into its reserved
// place, if it has one, and the ordinary block's walk goes on from there.
func (p *Proc) blockOn(s Slot, fn func()) error {
	k := p.k
	p.state = pBlocked
	k.blocked++
	k.running, k.walking, k.reserving = nil, p, true
	k.take(s, nil)
	returned := k.callInPlace(fn)
	w := k.wake
	k.reserving, k.wake = false, Slot{}
	if returned && w.seq != 0 && k.next(w.at) {
		k.walking, k.running = nil, p
		p.state = pRunning
		k.blocked--
		k.take(w, p)
		return p.interrupted()
	}
	if w.seq != 0 {
		k.queueWake(w, p, p.gen)
	}
	if !returned {
		k.walking = nil // the held panic ends the walk, as it ends resumeInPlace's
	}
	return p.await(returned && k.resumeInPlace(p), Timer{})
}

func (p *Proc) takeInterrupt() error {
	reason := p.intrReason
	p.intrPending = false
	p.intrReason = nil
	return &Interrupted{Reason: reason} // lint:alloc one error per delivered interrupt (a migration signal), not per block
}

// Sleep suspends the proc for d of virtual time. It returns nil when the
// full duration elapsed and *Interrupted when cut short by an interrupt.
func (p *Proc) Sleep(d Time) error {
	if d <= 0 {
		return p.Yield()
	}
	return p.SleepUntil(p.k.now + d)
}

// SleepUntil suspends the proc until the absolute virtual time t. When the
// wake would provably be the next event (canTake), the proc moves the clock
// to t itself and the wake never enters the queue.
func (p *Proc) SleepUntil(t Time) error {
	if t <= p.k.now {
		return p.Yield()
	}
	if p.canTake(t) {
		p.k.take(p.k.Reserve(t), p)
		return nil
	}
	wake := p.k.scheduleWakeTimer(p, t, p.gen)
	return p.block(wake)
}

// Yield re-queues the proc at the current time, letting other ready procs
// and events run first. Like all blocking calls it is an interrupt point.
func (p *Proc) Yield() error {
	wake := p.k.scheduleWakeTimer(p, p.k.now, p.gen)
	return p.block(wake)
}

// Join blocks until other's body has returned.
func (p *Proc) Join(other *Proc) error {
	for !other.Done() {
		if err := other.doneCond.Wait(p); err != nil {
			return err
		}
	}
	return nil
}

// Interrupt delivers an asynchronous interrupt to p, modelling a Unix
// signal. If p is blocked it is woken immediately and its blocking call
// returns *Interrupted; if p is running (or the interrupt is masked), the
// interrupt stays pending and the next unmasked blocking call returns
// *Interrupted without blocking. Interrupting a finished proc is a no-op.
// Only a single interrupt is held pending; a second one overwrites the
// reason, matching Unix signal coalescing.
func (p *Proc) Interrupt(reason any) {
	if p.state == pDone {
		return
	}
	p.intrPending = true
	p.intrReason = reason
	if p.state == pBlocked && !p.intrMasked {
		p.k.scheduleWake(p, p.k.now, p.gen)
	}
}

// MaskInterrupts defers interrupt delivery until UnmaskInterrupts. The
// MPVM/UPVM run-time libraries use this to model their re-entrancy flag:
// a VP cannot be migrated while executing inside the message-passing
// library, so migration signals are held pending until the library call
// completes.
func (p *Proc) MaskInterrupts() { p.intrMasked = true }

// UnmaskInterrupts re-enables interrupt delivery. A pending interrupt is
// not delivered here; it surfaces at the next blocking call, matching the
// "check the flag on the way out of the library" implementation in MPVM.
func (p *Proc) UnmaskInterrupts() { p.intrMasked = false }

// InterruptsMasked reports whether interrupts are currently masked.
func (p *Proc) InterruptsMasked() bool { return p.intrMasked }

// InterruptPending reports whether an interrupt is waiting for delivery.
func (p *Proc) InterruptPending() bool { return p.intrPending }
