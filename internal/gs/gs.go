// Package gs implements the network-wide Global Scheduler that all three
// migration systems assume (paper §2.0): it embodies the decision-making
// policies for scheduling parallel jobs on shared workstations and
// initiates migrations by signalling the daemons.
//
// The scheduler (Fleet, fleet.go) watches owner activity, load and daemon
// heartbeats on every host and issues evacuation / rebalancing / recovery
// orders to a Target — one VPTarget over MPVM processes or UPVM ULPs, or
// a CountTarget over plain per-host unit counts. ADM is not driven from
// here: its redistributions are application-level events that its driver
// sends with adm.Signal. With one shard and the run-queue load source it
// is the paper's single GS; more shards scale the same loop to thousands
// of hosts.
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

// Receivers is the receiver set for work leaving from: every other host
// that Receives and — when image is set, because a process image moves, not
// data — is migration-compatible with from.
func Receivers(from *cluster.Host, image bool) HostSet {
	hs := from.Cluster().Hosts()
	set := NewHostSet(len(hs))
	for i, h := range hs {
		set.Put(i, h != from && h.Receives() && (!image || from.MigrationCompatible(h)))
	}
	return set
}

// orderMoves places n processes leaving from by the one pick rule
// (LoadIndex.Place over Receivers(from, true)), calls move(i, dest) for each
// — dest -1 when process i found no receiver — and returns how many moves
// were accepted and the first error.
func orderMoves(idx *LoadIndex, from *cluster.Host, n int, move func(i, dest int) error) (int, error) {
	var dests []int
	if n > 0 {
		dests = idx.Place(int(from.ID()), n, Receivers(from, true))
	}
	moved := 0
	var firstErr error
	for i := 0; i < n; i++ {
		dest := -1
		if i < len(dests) {
			dest = dests[i]
		}
		if err := move(i, dest); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved++
	}
	return moved, firstErr
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
