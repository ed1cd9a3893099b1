package gs

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// Failure detection: the paper's GS assumes hosts are only ever *reclaimed*
// by their owners; this file adds the case the paper concedes to Condor in
// §5.0 — hosts that are *lost*. Daemons emit heartbeats (internal/ft runs
// the senders and the receiving Detector); the scheduler scans the
// detector's last-heard table and declares a host dead after SuspectAfter
// of silence.
//
// The two conditions are distinguishable precisely because the heartbeat
// comes from the daemon, not from guest work: an owner-reclaimed host still
// runs its daemon and keeps beating, so it is evacuated (ReasonOwnerReclaim)
// but never declared dead; only a crashed or partitioned host falls silent
// (ReasonHostFailure). A host whose beats resume rejoins the pool
// (ReasonHostRejoin) and becomes a placement candidate again.

// HeartbeatSource is the detector the scheduler reads: typically ft.Detector
// on the scheduler's host.
type HeartbeatSource interface {
	// LastHeard returns the virtual time a beat from host was last
	// received, and whether the host is monitored at all.
	LastHeard(host int) (sim.Time, bool)
}

// FailureTarget is the optional Target extension for declaring a host dead.
// Targets that implement it (ft.Manager) run recovery: respawn the lost
// VPs from their checkpoints and roll the job back. The return value is
// the number of VPs respawned.
type FailureTarget interface {
	HostDead(host int) (int, error)
}

// RejoinTarget is the optional Target extension notified when a declared-
// dead host's beats resume (after revival, or a healed partition).
type RejoinTarget interface {
	HostRejoined(host int)
}

// SetHeartbeatSource installs the detector; must be called before Start.
func (f *Fleet) SetHeartbeatSource(src HeartbeatSource) { f.hb = src }

// DeadHosts returns the hosts currently declared dead, ascending.
func (f *Fleet) DeadHosts() []int {
	var out []int
	for id, h := range f.hosts {
		if h.DeclaredDead() {
			out = append(out, id)
		}
	}
	return out
}

// watch is one heartbeat scan, rescheduling itself.
func (f *Fleet) watch() {
	if f.stopped {
		return
	}
	f.watchOnce()
	f.k.Schedule(f.pol.HeartbeatInterval, f.watchFn)
}

// suspect reports whether a silence of the given length marks a host lost.
// The boundary is exclusive: a host silent for *exactly* SuspectAfter is
// still alive. Both the declare-dead and the rejoin branch of watchOnce go
// through this one predicate, so the two directions can never disagree
// about the tie (a host at the boundary neither dies nor, if already dead,
// stays dead).
func (f *Fleet) suspect(silent sim.Time) bool {
	return silent > f.pol.SuspectAfter
}

// watchOnce scans heartbeat ages and flips each host's dead verdict
// (cluster.Host.SetDeclaredDead), which every placement path reads through
// Host.Receives and whose DeadChanged notice marks the host for the next
// beat.
func (f *Fleet) watchOnce() {
	now := f.k.Now()
	for id, h := range f.hosts {
		last, ok := f.hb.LastHeard(id)
		if !ok {
			continue
		}
		silent := now - last
		if !h.DeclaredDead() && f.suspect(silent) {
			h.SetDeclaredDead(true)
			var moved int
			var err error
			if ft, ok := f.target.(FailureTarget); ok {
				moved, err = ft.HostDead(id)
			}
			f.log.add(Decision{
				At: now, Host: id, Dest: -1,
				Reason: core.ReasonHostFailure, Moved: moved, Err: err,
			})
		} else if h.DeclaredDead() && !f.suspect(silent) {
			h.SetDeclaredDead(false)
			if rt, ok := f.target.(RejoinTarget); ok {
				rt.HostRejoined(id)
			}
			f.log.add(Decision{
				At: now, Host: id, Dest: -1, Reason: core.ReasonHostRejoin,
			})
		}
	}
}
