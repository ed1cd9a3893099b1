package netsim

import "pvmigrate/internal/sim"

// Failure primitives: the fault-injection layer (internal/ft) drives these
// to take hosts off the wire, split the segment into partitions, and drop a
// fraction of datagrams. All state changes happen in kernel context (the
// injector schedules them as kernel events), so every run is reproducible.
//
// Semantics:
//   - A *down* host neither sends nor receives: datagrams to or from it are
//     dropped at delivery time (frames already on the wire when the host
//     dies are lost, like a real NIC going dark mid-packet), and TCP
//     dials/sends fail fast with ErrUnreachable.
//   - A *partition* assigns each host a group number; traffic crosses only
//     within a group. Hosts never assigned default to group 0.
//   - *Loss* drops each cross-host datagram with the configured probability,
//     from a dedicated seeded stream so enabling loss never perturbs other
//     components' randomness. TCP is not subject to loss (the real protocol
//     retransmits; the model folds that into its fitted goodput).

// SetHostDown marks host h down (true) or back up (false).
func (n *Network) SetHostDown(h HostID, down bool) {
	if n.down == nil {
		n.down = make(map[HostID]bool)
	}
	if down {
		n.down[h] = true
	} else {
		delete(n.down, h)
	}
}

// Partition splits the segment: each host maps to a group number and frames
// cross only within a group. Hosts absent from the map are in group 0.
// Calling Partition replaces any previous partition.
func (n *Network) Partition(groups map[HostID]int) {
	n.group = make(map[HostID]int, len(groups))
	for h, g := range groups {
		n.group[h] = g
	}
}

// Heal removes any partition; all hosts rejoin group 0.
func (n *Network) Heal() { n.group = nil }

// SetLoss sets the datagram loss rate (0 disables) with its own seeded
// stream. rate outside [0, 1) is clamped.
func (n *Network) SetLoss(rate float64, seed uint64) {
	if rate < 0 {
		rate = 0
	}
	if rate >= 1 {
		rate = 0.999
	}
	n.lossRate = rate
	if rate > 0 {
		n.lossRNG = sim.NewRNG(seed)
	} else {
		n.lossRNG = nil
	}
}

// Reachable reports whether traffic from a can currently reach b: both hosts
// up and in the same partition group. A host can always reach itself while
// it is up (loopback does not touch the wire).
func (n *Network) Reachable(a, b HostID) bool {
	if n.down[a] || n.down[b] {
		return false
	}
	if a == b {
		return true
	}
	return n.group[a] == n.group[b]
}

// dropDgram decides, at delivery time, whether a datagram from src to dst is
// lost — to a down host, across a partition, or to random loss.
func (n *Network) dropDgram(src, dst HostID) bool {
	if !n.Reachable(src, dst) {
		return true
	}
	if src != dst && n.lossRate > 0 && n.lossRNG.Float64() < n.lossRate {
		return true
	}
	return false
}
