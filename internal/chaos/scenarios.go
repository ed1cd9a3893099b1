package chaos

import (
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// The scenarios from the hardening roadmap. Each draws its fault
// instants from the seed's timing stream, so a seed sweep slides them across
// the protocol windows they race with: heartbeat detection (~2 s), the
// stage-2 flush barrier (ms), skeleton start (780 ms), state transfer
// (100s of ms), and the respawn/rollback sequence that follows a loss.

// within returns a seeded instant in [from, to).
func within(rng *sim.RNG, from, to sim.Time) sim.Time {
	return from + sim.Time(rng.Float64()*float64(to-from))
}

// pickHost returns a seeded host in [1, hosts) excluding the given one
// (pass -1 to exclude none). Host 0 (GS + store + master) is never picked.
func pickHost(rng *sim.RNG, exclude int) int {
	for {
		h := 1 + int(rng.Uint64()%uint64(hosts-1))
		if h != exclude {
			return h
		}
	}
}

// ReclaimDuringRollback crashes a slave host, then has an owner reclaim a
// *different* host while the resulting recovery is still in flight: the
// reclaim evacuation's migrations interleave with respawns, the master's
// rollback reload, and the post-recovery re-checkpoint. The reclaim offset
// sweeps from before detection to well after the respawns land.
var ReclaimDuringRollback = Scenario{
	Name: "reclaim-during-rollback",
	Build: func(rng *sim.RNG) ([]ft.Fault, []OwnerChange) {
		crashAt := within(rng, 4*time.Second, 10*time.Second)
		crashed := pickHost(rng, -1)
		// The reclaim sweeps across the crash's whole recovery arc:
		// sometimes it lands before the crash, sometimes mid-detection,
		// sometimes mid-respawn, sometimes after recovery settled.
		reclaimAt := crashAt + within(rng, -2*time.Second, 8*time.Second)
		reclaimed := pickHost(rng, crashed)
		faults := []ft.Fault{{At: crashAt, Kind: ft.HostCrash, Host: crashed}}
		owners := []OwnerChange{
			{At: reclaimAt, Host: reclaimed, Active: true},
			{At: reclaimAt + 20*time.Second, Host: reclaimed, Active: false},
		}
		return faults, owners
	},
}

// CrashDuringEvacuation reclaims a host (starting evacuation migrations)
// and crashes another host a sweep-chosen beat later — sometimes before the
// flush completes, sometimes mid-skeleton-start, sometimes mid-transfer,
// sometimes just after restart. When the crashed host is a migration
// destination this drives the abort-to-source paths; when it is a bystander
// it interleaves an independent recovery with the evacuation.
var CrashDuringEvacuation = Scenario{
	Name: "crash-during-evacuation",
	Build: func(rng *sim.RNG) ([]ft.Fault, []OwnerChange) {
		reclaimAt := within(rng, 4*time.Second, 8*time.Second)
		reclaimed := pickHost(rng, -1)
		crashed := pickHost(rng, reclaimed)
		// Sweep the crash across the whole migration protocol: flush is
		// milliseconds, the skeleton starts at 780 ms, transfer runs for
		// hundreds of ms more.
		crashAt := reclaimAt + within(rng, 0, 2*time.Second)
		faults := []ft.Fault{{At: crashAt, Kind: ft.HostCrash, Host: crashed}}
		owners := []OwnerChange{{At: reclaimAt, Host: reclaimed, Active: true}}
		return faults, owners
	},
}

// SplitBrainRejoin partitions a slave host away from the cluster: its beats
// stop, the GS declares it dead, and its still-running VPs are fenced as
// orphans and respawned elsewhere. The partition heals a sweep-chosen
// interval later — before, around, or long after the respawns complete —
// and the rejoining host's orphans must be reaped with no spurious respawn.
var SplitBrainRejoin = Scenario{
	Name: "split-brain-rejoin",
	Build: func(rng *sim.RNG) ([]ft.Fault, []OwnerChange) {
		partAt := within(rng, 4*time.Second, 10*time.Second)
		host := pickHost(rng, -1)
		groups := map[netsim.HostID]int{netsim.HostID(host): 1}
		// Heal sweeps from just past detection (orphans possibly still
		// mid-anything) to long after recovery has fully settled.
		healAt := partAt + within(rng, 3*time.Second, 20*time.Second)
		faults := []ft.Fault{
			{At: partAt, Kind: ft.LinkPartition, Groups: groups},
			{At: healAt, Kind: ft.LinkHeal},
		}
		return faults, nil
	},
}

// ADMRedistributionRacingMigration runs an ADM overlay beside the ft job
// and races the two reactions to the same owner arrival: the GS evacuates
// the reclaimed host's VPs through the MPVM migration protocol while the
// ADM application redistributes that host's data share through its own
// withdraw protocol. The withdraw offset sweeps from before the reclaim
// (redistribution already draining the host when evacuation starts) to
// well after (evacuation's migrations mid-flight when the redistribution
// barrier runs); a seeded rebalance on a second slave adds the repartition
// path to the interleaving.
var ADMRedistributionRacingMigration = Scenario{
	Name: "adm-redistribution-racing-migration",
	Build: func(rng *sim.RNG) ([]ft.Fault, []OwnerChange) {
		reclaimAt := within(rng, 4*time.Second, 9*time.Second)
		reclaimed := pickHost(rng, -1)
		owners := []OwnerChange{
			{At: reclaimAt, Host: reclaimed, Active: true},
			{At: reclaimAt + 20*time.Second, Host: reclaimed, Active: false},
		}
		return nil, owners
	},
	ADMSignals: func(rng *sim.RNG, owners []OwnerChange) []ADMSignal {
		reclaim := owners[0]
		// Slave i lives on host i+1, so the reclaimed host's ADM share is
		// slave reclaimed-1. The withdraw sweeps across the evacuation arc.
		withdrawAt := reclaim.At + within(rng, -2*time.Second, 4*time.Second)
		if withdrawAt < time.Second {
			withdrawAt = time.Second
		}
		signals := []ADMSignal{{
			At: withdrawAt, Slave: reclaim.Host - 1,
			Kind: "withdraw", Reason: core.ReasonOwnerReclaim,
		}}
		other := pickHost(rng, reclaim.Host)
		signals = append(signals, ADMSignal{
			At: withdrawAt + within(rng, 0, 3*time.Second), Slave: other - 1,
			Kind: "rebalance", Reason: core.ReasonHighLoad,
		})
		return signals
	},
}

// CrashMidPrecopy reclaims a host — evacuating it through the *warm*
// iterative-precopy protocol — and crashes a host a sweep-chosen beat
// later. A coin flip picks the migration source itself (the reclaimed
// host, killing the precopy stream between rounds or during cutover) or
// another host (often a precopy destination, forcing abort-to-source while
// the task still runs there). The crash offset sweeps the whole precopy
// arc: round 0's bulk transfer, the dirty-delta rounds, the freeze, and
// the post-cutover tail. The accounting invariant under audit: an aborted
// precopy contributes exactly zero migration records, a completed one
// exactly one, no matter where the crash lands.
var CrashMidPrecopy = Scenario{
	Name: "crash-mid-precopy",
	Warm: true,
	Build: func(rng *sim.RNG) ([]ft.Fault, []OwnerChange) {
		reclaimAt := within(rng, 4*time.Second, 8*time.Second)
		reclaimed := pickHost(rng, -1)
		crashed := reclaimed
		if rng.Float64() < 0.5 {
			crashed = pickHost(rng, reclaimed)
		}
		crashAt := reclaimAt + within(rng, 0, 3*time.Second)
		faults := []ft.Fault{{At: crashAt, Kind: ft.HostCrash, Host: crashed}}
		owners := []OwnerChange{{At: reclaimAt, Host: reclaimed, Active: true}}
		return faults, owners
	},
}

// ULPHandoffUnderPartition runs a UPVM overlay beside the ft job and
// drives ULP hand-offs into a network partition. A hand-off issued while
// a peer is partitioned away cannot complete its flush barrier — the
// flush datagram is dropped, the ack never comes — so the bounded barrier
// must abort and revert the captured ULP to its source instead of wedging
// the overlay forever. A post-heal move checks that a fresh barrier is
// not corrupted by stale acks from the aborted one. The move offsets
// sweep from before the partition (clean hand-off) to deep inside it
// (guaranteed abort).
var ULPHandoffUnderPartition = Scenario{
	Name: "ulp-handoff-under-partition",
	Build: func(rng *sim.RNG) ([]ft.Fault, []OwnerChange) {
		partAt := within(rng, 4*time.Second, 9*time.Second)
		host := pickHost(rng, -1)
		groups := map[netsim.HostID]int{netsim.HostID(host): 1}
		healAt := partAt + within(rng, 3*time.Second, 12*time.Second)
		faults := []ft.Fault{
			{At: partAt, Kind: ft.LinkPartition, Groups: groups},
			{At: healAt, Kind: ft.LinkHeal},
		}
		return faults, nil
	},
	ULPMoves: func(rng *sim.RNG, faults []ft.Fault) []ULPMove {
		partAt, healAt := faults[0].At, faults[1].At
		var cut int
		for h := range faults[0].Groups {
			cut = int(h)
		}
		// ULP rank r lives on host r+1. A mover on a connected host: its
		// flush still needs the cut host's ack, so a move inside the
		// window aborts even though source and destination can talk.
		src := pickHost(rng, cut)
		dst := pickHost(rng, src)
		moves := []ULPMove{{
			At:  partAt + within(rng, -2*time.Second, 3*time.Second),
			ULP: src - 1, Dest: dst,
		}}
		// The cut host's own ULP: every flush it sends is dropped, so a
		// move in the window aborts with zero acks.
		moves = append(moves, ULPMove{
			At:  partAt + within(rng, 0, 3*time.Second),
			ULP: cut - 1, Dest: pickHost(rng, cut),
		})
		// Post-heal retry of the first mover: a fresh barrier that must
		// complete on its own acks, not the aborted round's stale ones.
		moves = append(moves, ULPMove{
			At:  healAt + within(rng, time.Second, 4*time.Second),
			ULP: src - 1, Dest: dst,
		})
		return moves
	},
}

// Scenarios is the sweep set, in the order the roadmap names them.
var Scenarios = []Scenario{ReclaimDuringRollback, CrashDuringEvacuation, SplitBrainRejoin,
	ADMRedistributionRacingMigration, CrashMidPrecopy, ULPHandoffUnderPartition}
