package netsim

import "pvmigrate/internal/sim"

// Link is the shared Ethernet medium, modelled as a single non-preemptive
// FIFO server: each frame occupies the wire for (payload+overhead)·8/bw
// seconds, and competing transfers interleave at frame granularity because
// each sender reserves one frame slot at a time.
type Link struct {
	k         *sim.Kernel
	busyUntil sim.Time
}

// frameTime returns the wire occupancy of a frame carrying payload bytes.
func (l *Link) frameTime(payload int) sim.Time {
	bits := float64(payload+frameOverhead) * 8
	return sim.FromSeconds(bits / bandwidthBps)
}

// reserve books wire time for a frame starting no earlier than now and
// returns the time the frame finishes transmission (before propagation
// latency). It never blocks; callers either sleep until the returned time
// (paced senders) or schedule delivery callbacks (datagrams).
func (l *Link) reserve(payload int) sim.Time {
	now := l.k.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	d := l.frameTime(payload)
	l.busyUntil = start + d
	return l.busyUntil
}

// Transmit sends one frame with the given payload size, blocking the caller
// until the frame has left the wire. It is the pacing primitive used by the
// TCP model.
func (l *Link) Transmit(p *sim.Proc, payload int) error {
	end := l.reserve(payload)
	return p.SleepUntil(end)
}
