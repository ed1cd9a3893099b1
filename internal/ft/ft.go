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

	"pvmigrate/internal/sim"
)

// Config sets the fault-tolerance layer's timing and sizing knobs.
type Config struct {
	// HeartbeatInterval is the daemon beat period (default 500 ms).
	HeartbeatInterval sim.Time
	// SuspectAfter is the beat silence after which the GS declares a host
	// dead (default 2 s; must comfortably exceed HeartbeatInterval).
	SuspectAfter sim.Time
	// CheckpointEvery is the coordinated-checkpoint period in training
	// iterations (default 2). The recovery guarantee is: at most this many
	// iterations of work are lost per failure.
	CheckpointEvery int
	// DiskBps is the checkpoint store's disk bandwidth (default 1.5 MB/s,
	// a 1994 SCSI disk).
	DiskBps float64
	// StoreHost is the host holding the stable checkpoint store (default 0,
	// conventionally the GS host). VPs elsewhere pay wire time to reach it.
	StoreHost int
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 2 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
	if c.DiskBps == 0 {
		c.DiskBps = 1.5e6
	}
	return c
}
