package sim

// Cond is a condition variable for procs. Because the kernel runs at most
// one proc at a time there are no data races, but the usual discipline still
// applies: callers must re-check their predicate after Wait returns, since
// another proc may run between the Broadcast and the wake.
type Cond struct {
	k       *Kernel
	waiters []condWaiter
}

type condWaiter struct {
	p   *Proc
	gen uint64
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

// Signal wakes one waiting proc, if any. Waiters that were already woken by
// other means (interrupts) are skipped, so a Signal is never wasted on a
// stale entry.
func (c *Cond) Signal() {
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.p.state == pBlocked && w.p.gen == w.gen {
			c.k.scheduleWake(w.p, c.k.now, w.gen)
			return
		}
	}
}

// Broadcast wakes all waiting procs. The waiter storage is kept, so a
// long-lived Cond stops allocating once it has seen its widest wait.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		if w.p.state == pBlocked && w.p.gen == w.gen {
			c.k.scheduleWake(w.p, c.k.now, w.gen)
		}
	}
	c.waiters = c.waiters[:0]
}

// Len returns the number of queued waiter entries (including stale ones);
// intended for tests.
func (c *Cond) Len() int { return len(c.waiters) }
