// Package sweep fans independent deterministic simulation runs out across
// host CPUs.
//
// Everything built on internal/sim is single-threaded by construction — the
// kernel dispatches one proc at a time, and no code above the kernel starts
// a host goroutine (one that touched a kernel would fail -race and the
// golden digests the first time a test ran it). That rule is exactly what
// makes *runs* embarrassingly parallel: a seeded experiment touches no
// state outside its own kernel, so a sweep of N seeds can run on N host
// threads with bit-for-bit the same per-seed results as a serial loop. This
// package is the one place (besides the kernel's coroutine trampoline)
// where goroutines run simulations, and the determinism contract is pinned
// by chaos's parallel-vs-serial sweep test.
//
// The contract for worker functions: build every kernel, RNG and system
// inside fn, reference nothing mutable from outside, and return a plain
// value. Results are delivered indexed by input, so output order never
// depends on host scheduling.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) across at most workers host
// goroutines and returns the results indexed by i. workers <= 0 means
// GOMAXPROCS; workers == 1 runs inline with no goroutines at all, so a
// serial sweep is byte-identical to the pre-parallel code path. fn must be
// safe to call concurrently with distinct arguments (self-contained runs).
// A panic in any fn is re-raised on the caller after the sweep drains.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next     atomic.Int64 // next unclaimed index
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(fmt.Sprintf("sweep: worker panicked: %v", panicked))
	}
	return out
}

// Seeds runs fn for every seed in [0, n) — the shape of a chaos or
// benchmark seed sweep. See Map for the workers contract.
func Seeds[T any](n, workers int, fn func(seed uint64) T) []T {
	return Map(n, workers, func(i int) T { return fn(uint64(i)) })
}

// Workers clamps an explicit worker-count request: 0 (or negative) means
// GOMAXPROCS. It exists so flag plumbing in the chaos harness and the
// bench drivers resolves "-parallel 0" the same way everywhere.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}
