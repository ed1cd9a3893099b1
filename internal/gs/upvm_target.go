package gs

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/upvm"
)

// UPVMTarget adapts a UPVM system to the scheduler: work units are ULPs,
// giving the scheduler the finer redistribution granularity that is UPVM's
// selling point (§3.4.2). Host load is served from an incremental
// LoadIndex fed by the system's placement hooks (initial load, migration
// acceptance, completion), so HostLoad never rescans ULPs.
type UPVMTarget struct {
	sys  *upvm.System
	ulps []int
	idx  *LoadIndex
	// cur is the host each tracked ULP is currently counted on (-1 when
	// done or not yet placed).
	cur map[int]int
}

// NewUPVMTarget wraps a UPVM system.
func NewUPVMTarget(sys *upvm.System) *UPVMTarget {
	t := &UPVMTarget{
		sys: sys,
		idx: NewLoadIndex(sys.Machine().NHosts()),
		cur: make(map[int]int),
	}
	sys.OnPlacement(t.notePlaced)
	return t
}

// Index returns the incremental load table that serves HostLoad.
func (t *UPVMTarget) Index() *LoadIndex { return t.idx }

// Track registers a ULP the scheduler may move.
func (t *UPVMTarget) Track(ulpID int) {
	if _, ok := t.cur[ulpID]; ok {
		return
	}
	t.ulps = append(t.ulps, ulpID)
	host := -1
	if u := t.sys.ULP(ulpID); u != nil && !u.Done() {
		host = int(u.Host().ID())
		t.idx.NoteSpawn(host)
	}
	t.cur[ulpID] = host
}

// notePlaced is the upvm placement hook; host -1 means the ULP completed.
func (t *UPVMTarget) notePlaced(ulpID, host int) {
	old, ok := t.cur[ulpID]
	if !ok {
		return
	}
	switch {
	case old < 0 && host >= 0:
		t.idx.NoteSpawn(host)
	case old >= 0 && host < 0:
		t.idx.NoteExit(old)
	case old >= 0 && host >= 0:
		t.idx.NoteMoved(old, host)
	}
	t.cur[ulpID] = host
}

// HostLoad reports tracked live ULPs on the host from the load index.
func (t *UPVMTarget) HostLoad(host int) int { return t.idx.Load(host) }

// bruteHostLoad recounts by rescanning every tracked ULP — the pre-index
// algorithm, kept as the oracle for the index cross-check test.
func (t *UPVMTarget) bruteHostLoad(host int) int {
	n := 0
	for _, id := range t.ulps {
		u := t.sys.ULP(id)
		if u != nil && !u.Done() && int(u.Host().ID()) == host {
			n++
		}
	}
	return n
}

// EvacuateHost migrates every tracked ULP off the host.
func (t *UPVMTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	moved := 0
	var firstErr error
	for _, id := range t.ulps {
		u := t.sys.ULP(id)
		if u == nil || u.Done() || u.Migrating() || int(u.Host().ID()) != host {
			continue
		}
		dest := bestDest(u.Host())
		if dest < 0 {
			if firstErr == nil {
				firstErr = errs.Newf(CodeNoDestination, "no compatible destination for ULP %d", id).
					AddContext("from", host).AddContext("reason", reason)
			}
			continue
		}
		if err := t.sys.Migrate(id, dest, reason); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved++
	}
	return moved, firstErr
}

// MoveOne migrates one tracked ULP between hosts.
func (t *UPVMTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	for _, id := range t.ulps {
		u := t.sys.ULP(id)
		if u == nil || u.Done() || u.Migrating() || int(u.Host().ID()) != from {
			continue
		}
		return t.sys.Migrate(id, to, reason)
	}
	return errs.Newf(CodeNoMovable, "no movable ULP on host %d", from).
		AddContext("to", to).AddContext("reason", reason)
}
