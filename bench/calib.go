package main

import "time"

// KRef is the duration of the calibration kernel on the reference machine.
// A segment's calibrated duration is wall × KRef ÷ (the kernel's duration
// around the segment), so it reads as "time at reference machine speed" and
// drift of the host (frequency, steal time, a noisy neighbour) cancels.
const KRef = 2500 * time.Microsecond

// The kernel's three parts and their share of its time on this box. The
// shares were chosen by running candidate kernels beside every workload's
// ops for thirty minutes while the machine drifted (raw op time moved
// 28-50%): a kernel that streams through memory tracked the ops' slowdown
// far better (ratio op÷kernel varied 1.5-5% across two-minute windows) than
// one resident in L2 (5-8%), because the ops allocate 10-170 MB each and
// spend their time in the memory system; a share of scattered updates
// helped serve_session, and a small compute-bound share helped when the
// slowdown was the processor's.
const (
	streamWords  = 1 << 20  // 8 MiB read-modify-written in order: ~60%
	scatterWords = 4 << 20  // 32 MiB ...
	scatterSteps = 25_000   // ... updated at independent random words: ~20%
	l2Words      = 64 << 10 // 512 KiB, resident in L2 ...
	l2Sweeps     = 2        // ... swept with dependent arithmetic: ~20%
)

// The kernel's working sets. Every run writes them, which keeps the
// compiler from eliding the loops.
var (
	calibStream  [streamWords]uint64
	calibScatter [scatterWords]uint64
	calibL2      [l2Words]uint64
)

// calibSink receives the kernel's checksum so the reads are not dead code.
var calibSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibKernel is the fixed, allocation-free unit of work K.
func calibKernel() uint64 {
	var sum uint64
	for i := range calibStream {
		calibStream[i] += uint64(i)
		sum += calibStream[i]
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < scatterSteps; i++ {
		x = xorshift(x)
		calibScatter[x&(scatterWords-1)] += x
	}
	for s := 0; s < l2Sweeps; s++ {
		for i := range calibL2 {
			x = xorshift(x)
			calibL2[x&(l2Words-1)] += x
			sum += calibL2[i]
		}
	}
	return sum + x
}

// calibrate runs K once and returns how long it took.
func calibrate() time.Duration {
	start := time.Now()
	calibSink += calibKernel()
	return time.Since(start)
}
