// Fixture: allocating constructs inside functions reachable from the
// configured hot entry point — directly, through a helper, and through a
// registered wire encoder. Cold functions may allocate freely. The
// record/log pair is the boxing case a capacity-preserving buffer rewrite
// cannot fix: the allocation is the interface conversion itself.
package flagged

import (
	"fmt"
	"syscall"

	"pvmigrate/internal/wirefmt"
)

type frame struct{ seq int }

type ring struct {
	buf   []byte
	items []frame
}

type logger interface{ log(v any) }

// Hot is the configured entry point (cfg.AllocHot).
func Hot(r *ring, n int) {
	r.buf = append(r.buf, byte(n)) // in-place reassign reuses capacity: silent
	grow(r, n)
	var l logger
	record(l, frame{seq: n})
	_, _ = boxedPair(n)
	_, _ = passPair(n)
	var v any
	var err error
	v, err = pair(n) // want `Hot is on a zero-alloc hot path .* but converts an assigned call result to an interface`
	_, _ = v, err
	_ = timeout()
}

func grow(r *ring, n int) {
	tmp := make([]byte, n) // want `grow is on a zero-alloc hot path .reachable from lintfixture.Hot. but calls make, which allocates`
	copy(r.buf, tmp)
	r.items = append(r.items[:0], frame{seq: n}) // self-append through a reslice: silent
	other := append(r.items, frame{seq: n})      // want `appends into a slice it neither reassigns in place nor returns`
	_ = other
	msg := fmt.Sprintf("n=%d", n) // want `calls fmt.Sprintf, which allocates`
	_ = msg
	name := string(r.buf) // want `performs a string/byte-slice conversion, which copies and allocates`
	_ = name
	_, _ = syscall.Getsockname(n) // want `calls syscall.Getsockname, which allocates`
	_, _ = syscall.Read(n, r.buf) // an exempt syscall call: silent
}

func record(l logger, f frame) {
	if l != nil {
		l.log(f) // want `passes a value as an interface argument, which heap-allocates the value`
	}
}

func pair(n int) (frame, error) { return frame{seq: n}, nil }

func anyPair(n int) (any, error) { return nil, nil }

type errno uintptr

func (errno) Error() string { return "errno" }

const eagain errno = 11

// A constant is boxed from read-only data: silent.
func timeout() error { return eagain }

// A multi-value `return f()` assigns each of f's results to the enclosing
// function's result in the same position: a concrete one boxes.
func boxedPair(n int) (any, error) {
	return pair(n) // want `boxedPair is on a zero-alloc hot path .* but converts a returned call result to an interface`
}

// Results that are interfaces already pass through: silent.
func passPair(n int) (any, error) {
	return anyPair(n)
}

func encFrame(dst []byte, v any) ([]byte, error) {
	scratch := new(frame) // want `encFrame is on a zero-alloc hot path .reachable from wirefmt.Register encoder encFrame. but calls new, which allocates`
	_ = scratch
	return append(dst, 0), nil // append-style API return: silent
}

func decFrame(r *wirefmt.Reader) any { return nil }

func init() {
	// Registered encoders are rooted automatically, without a cfg entry.
	wirefmt.Register(200, "lintfixture.frame", frame{}, encFrame, decFrame)
}

// cold is not reachable from any hot entry point: it may allocate.
func cold(n int) []byte { return make([]byte, n) }
