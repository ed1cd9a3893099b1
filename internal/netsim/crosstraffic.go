package netsim

import "pvmigrate/internal/sim"

// StartCrossTraffic injects background frames onto the shared Ethernet at
// the given fraction of link capacity (0 < utilization < 1), modelling the
// paper's observation that on a shared worknet "network bandwidth
// fluctuates and strongly influences the execution of jobs". The sender
// alternates one-MSS frames with exponentially distributed idle gaps sized
// so the wire carries the target utilization on average, until the kernel
// stops running it.
func StartCrossTraffic(n *Network, seed uint64, utilization float64) {
	if utilization <= 0 || utilization >= 1 {
		panic("netsim: cross-traffic utilization must be in (0, 1)")
	}
	rng := sim.NewRNG(seed)
	frame := MSS
	frameTime := n.link.frameTime(frame)
	meanGap := sim.Time(float64(frameTime) * (1 - utilization) / utilization)
	var send, idle func()
	send = func() { n.k.ScheduleAt(n.link.reserve(frame), idle) }
	idle = func() { n.k.Schedule(rng.ExpDuration(meanGap), send) }
	n.k.Schedule(0, send)
}
