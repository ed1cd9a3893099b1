// Package ft is the fault-tolerance subsystem: the failure mode the paper's
// GS assumes away. §2.0's scheduler handles hosts that are *reclaimed* by
// their owners (the daemon survives, VPs evacuate); §5.0 concedes that
// checkpoint-based systems like Condor additionally survive hosts that are
// *lost*. This package adds that capability on top of MPVM's own protocol
// machinery, in three parts:
//
//   - failure injection (inject.go): deterministic, seeded fault schedules
//     drive the sim kernel to crash and revive hosts (cluster.Host.Fail /
//     pvm.Machine.CrashHost) and to partition or degrade links (netsim);
//
//   - failure detection (heartbeat.go): every host's daemon beats a small
//     datagram at the GS host; the scheduler (gs.FleetPolicy.HeartbeatInterval /
//     SuspectAfter) declares a host dead after enough silence. Because the
//     beat comes from the daemon, not from guest work, an owner-reclaimed
//     host keeps beating and is never confused with a lost one;
//
//   - recovery (manager.go, job.go): a coordinated checkpoint built from
//     MPVM's stage-2 message flush (mpvm.FlushAndHold quiesces traffic, the
//     master's image goes to the checkpoint.Store, then every slave writes
//     its image) and rollback recovery built from MPVM's stage-4 restart
//     broadcast (mpvm.Respawn re-incarnates dead VPs under their original
//     tids, so surviving peers keep the names they first learned).
package ft

import (
	"time"

	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
)

// The layer's timing and placement. HeartbeatInterval and SuspectAfter are
// exported because callers size their settle tails from them.
const (
	// HeartbeatInterval is the daemon beat period.
	HeartbeatInterval sim.Time = 500 * time.Millisecond
	// SuspectAfter is the beat silence after which the GS declares a host
	// dead; it must comfortably exceed HeartbeatInterval.
	SuspectAfter sim.Time = 2 * time.Second
	// storeHost is the host holding the stable checkpoint store and the GS
	// with its heartbeat detector. VPs elsewhere pay wire time to reach it.
	storeHost = 0
)

// Config is what a caller chooses about the fault-tolerance layer.
type Config struct {
	// CheckpointEvery is the coordinated-checkpoint period in training
	// iterations (default 2). The recovery guarantee is: at most this many
	// iterations of work are lost per failure.
	CheckpointEvery int
}

// Stack is one assembled fault-tolerant run: the recovery manager, the GS
// that detects failures from heartbeat silence and drives it, and the fault
// injector that feeds it true crash times.
type Stack struct {
	Mgr   *Manager
	Sched *gs.Fleet
	Inj   *Injector
}

// NewStack assembles the layer over an MPVM system, in the one order every
// run uses (construction order is kernel event order): manager, heartbeats
// on the GS host, the fleet scheduler with the layer's detection timing,
// the injector. pol carries what the caller chooses about scheduling; its
// HeartbeatInterval and SuspectAfter are overwritten. The scheduler is left
// unstarted: a daemon starts it before any job exists, a batch run after
// its job is spawned. log may be nil. Runs get it through harness.NewWorld;
// it stays here because ft cannot import harness and its own tests build
// stacks directly.
func NewStack(sys *mpvm.System, cfg Config, pol gs.FleetPolicy, log *trace.Log) *Stack {
	m := sys.Machine()
	mgr := NewManager(sys, cfg, log)
	det := StartHeartbeats(m.Cluster(), storeHost, HeartbeatInterval)
	pol.HeartbeatInterval = HeartbeatInterval
	pol.SuspectAfter = SuspectAfter
	sched := gs.NewFleet(m.Cluster(), mgr, pol)
	sched.SetHeartbeatSource(det)
	inj := NewInjector(m, log)
	inj.OnFault(mgr.ObserveFault)
	return &Stack{Mgr: mgr, Sched: sched, Inj: inj}
}
