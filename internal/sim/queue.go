package sim

import "pvmigrate/internal/errs"

// CodeQueueClosed: a Queue operation found the queue closed.
const CodeQueueClosed errs.Code = "sim.queue-closed"

// ErrQueueClosed is returned by Queue operations after Close. It is one
// value, so callers may compare it with == as well as errs.Is.
var ErrQueueClosed = errs.New(CodeQueueClosed, "sim: queue closed", nil)

// Queue is an unbounded FIFO channel into procs or a callback. Producers
// never block: TryPut appends from a proc or a kernel callback alike, and
// fails only on a closed queue. Get blocks while the queue is empty and is
// an interrupt point; Serve consumes without a proc.
//
// Items live in a power-of-two ring buffer, so a steady put/get stream
// recycles the same backing array instead of sliding an append window down
// a slice (which reallocates every time the window reaches the end).
type Queue[T any] struct {
	buf    []T // ring storage; len(buf) is always 0 or a power of two
	head   int // index of the oldest item
	n      int // number of queued items
	closed bool

	notEmpty Cond
}

// NewQueue returns an empty queue bound to k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	q := &Queue[T]{}
	q.notEmpty.Init(k)
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// push appends v to the ring, growing it when full.
func (q *Queue[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring (minimum 8 slots) and unrolls it to start at 0.
func (q *Queue[T]) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	q.copyOut(buf[:q.n])
	q.buf = buf
	q.head = 0
}

// copyOut copies the queued items, oldest first, into dst (len(dst) == q.n).
func (q *Queue[T]) copyOut(dst []T) {
	if q.n == 0 {
		return
	}
	first := copy(dst, q.buf[q.head:min(q.head+q.n, len(q.buf))])
	copy(dst[first:], q.buf[:q.n-first])
}

// pop removes and returns the oldest item. Callers must check q.n > 0.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release the reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// TryPut appends v without blocking and wakes one waiting Get; it reports
// false, having queued nothing, when the queue is closed.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		return false
	}
	q.push(v)
	q.notEmpty.Signal()
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) (T, error) {
	var zero T
	for q.n == 0 {
		if q.closed {
			return zero, ErrQueueClosed
		}
		if err := q.notEmpty.Wait(p); err != nil {
			return zero, err
		}
	}
	return q.pop(), nil
}

// Serve consumes q with fn, which must not block, in kernel context: event
// for event and draw for draw, Spawn of a proc looping Get → fn until the
// queue is closed and empty. Its start event is queued where Spawn's would
// be; each drain hands fn every queued item, then waits on the queue as Get
// would, so a put to an idle queue and Close each queue the next drain.
func (q *Queue[T]) Serve(fn func(T)) {
	var drain func() // built once, so a re-arm allocates nothing
	drain = func() {
		for q.n > 0 {
			fn(q.pop())
		}
		if !q.closed {
			q.notEmpty.Await(drain)
		}
	}
	q.notEmpty.k.Schedule(0, drain)
}

// Drain removes and returns all queued items.
func (q *Queue[T]) Drain() []T {
	if q.n == 0 {
		return nil
	}
	out := make([]T, q.n)
	q.copyOut(out)
	clear(q.buf)
	q.head = 0
	q.n = 0
	return out
}

// Close marks the queue closed. Blocked and future Gets on an empty queue
// return ErrQueueClosed and TryPut fails; items already queued can still be
// retrieved.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
}
