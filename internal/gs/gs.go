// Package gs implements the network-wide Global Scheduler that all three
// migration systems assume (paper §2.0): it embodies the decision-making
// policies for scheduling parallel jobs on shared workstations and
// initiates migrations by signalling the daemons.
//
// The scheduler (Fleet, fleet.go) watches owner activity, load and daemon
// heartbeats on every host and issues evacuation / rebalancing / recovery
// orders to a Target — an adapter onto MPVM, UPVM or an ADM application, so
// the same policies drive all three systems. With one shard and the
// run-queue load source it is the paper's single GS; more shards scale the
// same loop to thousands of hosts.
package gs

import (
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// Target is the system-specific actuator the scheduler drives.
type Target interface {
	// EvacuateHost moves every guest VP (or the data, for ADM) off the
	// host. Returns the number of work units moved.
	EvacuateHost(host int, reason core.MigrationReason) (int, error)
	// MoveOne shifts one unit of work from one host to another.
	MoveOne(from, to int, reason core.MigrationReason) error
	// HostLoad returns the number of application work units currently
	// placed on the host (VPs, or data shares for ADM).
	HostLoad(host int) int
}

// bestDest is the one destination rule the VP-moving targets evacuate by:
// among the other hosts that are alive, owner-free and migration-compatible
// with from, the one with the fewest runnable jobs, lowest id on ties; -1
// when there is none.
func bestDest(from *cluster.Host) int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for _, h := range from.Cluster().Hosts() {
		if h == from || !h.Alive() || h.OwnerActive() || !from.MigrationCompatible(h) {
			continue
		}
		if load := h.LoadAverage(); load < bestLoad {
			best, bestLoad = int(h.ID()), load
		}
	}
	return best
}

// Decision is one scheduling action taken, for logs and tests.
type Decision struct {
	At     sim.Time
	Host   int
	Dest   int // -1 when the target chose destinations itself
	Reason core.MigrationReason
	Moved  int
	Err    error
}
