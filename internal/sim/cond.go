package sim

// Cond is a condition variable for procs and callbacks. Because the kernel
// runs at most one proc at a time there are no data races, but the usual
// discipline still applies: callers must re-check their predicate after
// Wait returns, since another proc may run between the Broadcast and the
// wake.
type Cond struct {
	k       *Kernel
	waiters []condWaiter
}

// condWaiter is a blocked proc (p, at generation gen) or a callback (fn).
type condWaiter struct {
	p   *Proc
	gen uint64
	fn  func()
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Init binds c to k and drops any queued waiter entries while keeping their
// storage. It readies a Cond held by value inside a recycled struct for its
// next tenant: the only entries such a Cond can still hold are stale ones
// (their proc was woken by an interrupt), which the proc generation check
// would skip anyway.
func (c *Cond) Init(k *Kernel) {
	c.k = k
	c.waiters = c.waiters[:0]
}

// Wait suspends p until Signal or Broadcast wakes it (or an interrupt
// arrives). Use in a loop around the predicate.
func (c *Cond) Wait(p *Proc) error {
	c.waiters = append(c.waiters, condWaiter{p: p, gen: p.gen})
	return p.block(Timer{})
}

// Await registers fn as a one-shot waiter: the Signal or Broadcast that
// takes it queues fn now with the one Reserve draw a proc's wake takes, so
// a callback that re-registers after each run is a proc looping on Wait.
func (c *Cond) Await(fn func()) {
	c.waiters = append(c.waiters, condWaiter{fn: fn})
}

// WaitSlot is ScheduleSlot(s, fn) followed by Wait(p), for a proc that
// waits for the callback it reserved into s, except that when that event is
// provably the next one dispatched the proc takes it in place and it never
// enters the queue (Proc.blockOn). It reports false, having done nothing,
// when the event is not provably next: the caller then queues fn into s
// itself and waits as usual.
func (c *Cond) WaitSlot(p *Proc, s Slot, fn func()) (bool, error) {
	if !p.canTake(s.at) {
		return false, nil
	}
	c.waiters = append(c.waiters, condWaiter{p: p, gen: p.gen})
	return true, p.blockOn(s, fn)
}

// Signal wakes one waiter, if any. Procs that were already woken by other
// means (interrupts) are skipped, so a Signal is never wasted on a stale
// entry. The entries behind the woken one are copied down rather than
// resliced past, so the next Wait appends into the same storage.
func (c *Cond) Signal() {
	for i, w := range c.waiters {
		if c.wake(w) {
			c.waiters = c.waiters[:copy(c.waiters, c.waiters[i+1:])]
			return
		}
	}
	c.waiters = c.waiters[:0]
}

// Broadcast wakes all waiters. The waiter storage is kept, so a long-lived
// Cond stops allocating once it has seen its widest wait.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.wake(w)
	}
	c.waiters = c.waiters[:0]
}

// wake queues w's wake at the current time, a callback's or a live proc's,
// and reports false, queueing nothing, for a stale proc entry.
func (c *Cond) wake(w condWaiter) bool {
	if w.fn != nil {
		c.k.Schedule(0, w.fn)
		return true
	}
	if w.p.state != pBlocked || w.p.gen != w.gen {
		return false
	}
	c.k.scheduleWake(w.p, c.k.now, w.gen)
	return true
}

// Len returns the number of queued waiter entries (including stale ones);
// intended for tests.
func (c *Cond) Len() int { return len(c.waiters) }
