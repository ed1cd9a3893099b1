package gs

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
)

// Units is what a migration system exposes for the scheduler to move its
// virtual processors: MPVM processes (ID core.TID) or UPVM ULPs (ID int).
type Units[ID comparable] interface {
	Machine() *pvm.Machine
	// OnPlacement registers fn to run whenever a unit's placement changes;
	// host -1 means the unit's current incarnation exited.
	OnPlacement(fn func(id ID, host int))
	// Placement reports where the unit runs, whether its current
	// incarnation is live and whether it is mid-migration.
	Placement(id ID) (host int, live, migrating bool)
	Migrate(id ID, dest int, reason core.MigrationReason) error
}

// VPTarget adapts a migration system to the scheduler: work units are whole
// VPs — MPVM processes, or UPVM's ULPs with their finer redistribution
// granularity (§3.4.2). Host load is served from an incremental LoadIndex
// fed by the system's placement hook, so HostLoad never rescans units.
type VPTarget[ID comparable] struct {
	sys Units[ID]
	// ids are the tracked units, in registration order.
	ids []ID
	idx *LoadIndex
	// cur is the host each tracked unit is counted on (-1 when it exited
	// or is not placed).
	cur map[ID]int
}

// NewVPTarget wraps a migration system. Register each unit the scheduler
// may move with Track.
func NewVPTarget[ID comparable](sys Units[ID]) *VPTarget[ID] {
	t := &VPTarget[ID]{
		sys: sys,
		idx: NewLoadIndex(sys.Machine().NHosts()),
		cur: make(map[ID]int),
	}
	sys.OnPlacement(t.notePlaced)
	return t
}

// Index returns the incremental load table that serves HostLoad.
func (t *VPTarget[ID]) Index() *LoadIndex { return t.idx }

// Track registers a unit the scheduler may move.
func (t *VPTarget[ID]) Track(id ID) {
	if _, ok := t.cur[id]; ok {
		return
	}
	t.ids = append(t.ids, id)
	host, live, _ := t.sys.Placement(id)
	if live {
		t.idx.NoteSpawn(host)
	} else {
		host = -1
	}
	t.cur[id] = host
}

// notePlaced is the system's placement hook.
func (t *VPTarget[ID]) notePlaced(id ID, host int) {
	old, ok := t.cur[id]
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
	t.cur[id] = host
}

// HostLoad reports tracked live units on the host from the load index.
func (t *VPTarget[ID]) HostLoad(host int) int { return t.idx.Load(host) }

// bruteHostLoad recounts by rescanning every tracked unit — the pre-index
// algorithm, kept as the oracle for the index cross-check test.
func (t *VPTarget[ID]) bruteHostLoad(host int) int {
	n := 0
	for _, id := range t.ids {
		if h, live, _ := t.sys.Placement(id); live && h == host {
			n++
		}
	}
	return n
}

// movable reports whether unit id is live on host and not mid-migration.
func (t *VPTarget[ID]) movable(id ID, host int) bool {
	h, live, migrating := t.sys.Placement(id)
	return live && !migrating && h == host
}

// EvacuateHost migrates every tracked unit off the host, placed by the one
// pick rule over the receivers its image may go to.
func (t *VPTarget[ID]) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	var ids []ID
	for _, id := range t.ids {
		if t.movable(id, host) {
			ids = append(ids, id)
		}
	}
	from := t.sys.Machine().Cluster().Host(netsim.HostID(host))
	return orderMoves(t.idx, from, len(ids), func(i, dest int) error {
		if dest < 0 {
			return errs.Newf(CodeNoDestination, "no compatible destination for %v", ids[i]).
				AddContext("from", host).AddContext("reason", reason)
		}
		return t.sys.Migrate(ids[i], dest, reason)
	})
}

// MoveOne migrates the first movable tracked unit from one host to another.
func (t *VPTarget[ID]) MoveOne(from, to int, reason core.MigrationReason) error {
	for _, id := range t.ids {
		if t.movable(id, from) {
			return t.sys.Migrate(id, to, reason)
		}
	}
	return errs.Newf(CodeNoMovable, "no movable VP on host %d", from).
		AddContext("to", to).AddContext("reason", reason)
}
