package netsim

import "pvmigrate/internal/sim"

// CrossTraffic injects background frames onto the shared Ethernet,
// modelling the paper's observation that on a shared worknet "network
// bandwidth fluctuates and strongly influences the execution of jobs".
// Frames arrive with exponential gaps sized so the wire carries the target
// utilization on average.
type CrossTraffic struct {
	k       *sim.Kernel
	proc    *sim.Proc
	stopped bool
}

// crossTrafficStop is the interrupt reason delivered to the sender proc.
type crossTrafficStop struct{}

// StartCrossTraffic begins injecting load at the given fraction of link
// capacity (0 < utilization < 1). The sender alternates one-MSS frames with
// exponentially distributed idle gaps.
func StartCrossTraffic(n *Network, seed uint64, utilization float64) *CrossTraffic {
	if utilization <= 0 || utilization >= 1 {
		panic("netsim: cross-traffic utilization must be in (0, 1)")
	}
	ct := &CrossTraffic{k: n.k}
	rng := sim.NewRNG(seed)
	frame := MSS
	frameTime := n.link.frameTime(frame)
	meanGap := sim.Time(float64(frameTime) * (1 - utilization) / utilization)
	ct.proc = n.k.Spawn("cross-traffic", func(p *sim.Proc) {
		for !ct.stopped {
			if err := n.link.Transmit(p, frame); err != nil {
				return
			}
			if err := p.Sleep(rng.ExpDuration(meanGap)); err != nil {
				return
			}
		}
	})
	return ct
}

// Stop ends the injection. The flag flip and the wake-up of the sender both
// run as a kernel event, so the halt lands at a well-defined virtual time
// regardless of which goroutine calls Stop.
func (c *CrossTraffic) Stop() {
	c.k.Schedule(0, func() {
		if c.stopped {
			return
		}
		c.stopped = true
		if c.proc != nil && !c.proc.Done() {
			c.proc.Interrupt(crossTrafficStop{})
		}
	})
}
