package sim

import "pvmigrate/internal/errs"

// CodeQueueClosed: a Queue operation found the queue closed.
const CodeQueueClosed errs.Code = "sim.queue-closed"

// ErrQueueClosed is returned by Queue operations after Close. It is one
// value, so callers may compare it with == as well as errs.Is.
var ErrQueueClosed = errs.New(CodeQueueClosed, "sim: queue closed", nil)

// Queue is a FIFO channel between procs. A capacity of 0 means unbounded.
// Get blocks while the queue is empty; Put blocks while a bounded queue is
// full. Both are interrupt points.
//
// Items live in a power-of-two ring buffer, so a steady put/get stream
// recycles the same backing array instead of sliding an append window down
// a slice (which reallocates every time the window reaches the end).
type Queue[T any] struct {
	k      *Kernel
	buf    []T // ring storage; len(buf) is always 0 or a power of two
	head   int // index of the oldest item
	n      int // number of queued items
	cap    int // bound; <= 0 means unbounded
	closed bool

	notEmpty Cond
	notFull  Cond
}

// NewQueue returns a queue bound to k. cap <= 0 means unbounded.
func NewQueue[T any](k *Kernel, cap int) *Queue[T] {
	q := &Queue[T]{k: k, cap: cap}
	q.notEmpty.Init(k)
	q.notFull.Init(k)
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

// Put appends v, blocking while a bounded queue is full.
func (q *Queue[T]) Put(p *Proc, v T) error {
	for q.cap > 0 && q.n >= q.cap && !q.closed {
		if err := q.notFull.Wait(p); err != nil {
			return err
		}
	}
	if q.closed {
		return ErrQueueClosed
	}
	q.push(v)
	q.notEmpty.Signal()
	return nil
}

// TryPut appends v without blocking; it reports whether the item was
// accepted. Kernel-context callbacks (which cannot block) use this.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed || (q.cap > 0 && q.n >= q.cap) {
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
	v := q.pop()
	q.notFull.Signal()
	return v, nil
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
	q.notFull.Broadcast()
	return out
}

// Close marks the queue closed. Blocked and future Gets on an empty queue
// and all Puts return ErrQueueClosed; items already queued can still be
// retrieved.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}
