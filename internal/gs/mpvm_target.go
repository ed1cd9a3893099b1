package gs

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
)

// MPVMTarget adapts an MPVM system to the scheduler: work units are whole
// migratable processes. Host load is served from an incremental LoadIndex
// fed by the system's placement hooks and task exit hooks, so HostLoad is
// O(1) instead of a rescan of every tracked VP.
type MPVMTarget struct {
	sys *mpvm.System
	// tracked original tids, in registration order.
	vps []core.TID
	idx *LoadIndex
	// cur is the index's belief per tracked VP: the host currently
	// counted (-1 when the VP is not counted anywhere) and the pvm.Task
	// incarnation whose exit hook is armed. Exit notices from older
	// incarnations are ignored by pointer identity.
	cur map[core.TID]*trackedVP
}

type trackedVP struct {
	host int
	task *pvm.Task
}

// NewMPVMTarget wraps an MPVM system. Register each migratable task that
// the scheduler may move.
func NewMPVMTarget(sys *mpvm.System) *MPVMTarget {
	t := &MPVMTarget{
		sys: sys,
		idx: NewLoadIndex(sys.Machine().NHosts()),
		cur: make(map[core.TID]*trackedVP),
	}
	sys.OnPlacement(t.notePlaced)
	return t
}

// Index returns the incremental load table that serves HostLoad.
func (t *MPVMTarget) Index() *LoadIndex { return t.idx }

// Track registers a migratable task with the scheduler.
func (t *MPVMTarget) Track(orig core.TID) {
	if _, ok := t.cur[orig]; ok {
		return
	}
	t.vps = append(t.vps, orig)
	tv := &trackedVP{host: -1}
	t.cur[orig] = tv
	mt := t.sys.Task(orig)
	if mt == nil {
		return
	}
	tv.task = mt.Task
	if !mt.Exited() {
		tv.host = int(mt.Host().ID())
		t.idx.NoteSpawn(tv.host)
	}
	mt.Task.OnExit(func(pt *pvm.Task) { t.noteExit(orig, pt) })
}

// notePlaced is the mpvm placement hook: a migration reintegrated or a
// respawn re-incarnated a VP on host.
func (t *MPVMTarget) notePlaced(orig core.TID, host int, task *pvm.Task) {
	tv := t.cur[orig]
	if tv == nil {
		return
	}
	if tv.host >= 0 {
		t.idx.NoteMoved(tv.host, host)
	} else {
		t.idx.NoteSpawn(host)
	}
	tv.host = host
	if task != tv.task {
		tv.task = task
		task.OnExit(func(pt *pvm.Task) { t.noteExit(orig, pt) })
	}
}

func (t *MPVMTarget) noteExit(orig core.TID, pt *pvm.Task) {
	tv := t.cur[orig]
	if tv == nil || tv.task != pt {
		return // stale incarnation
	}
	if tv.host >= 0 {
		t.idx.NoteExit(tv.host)
		tv.host = -1
	}
}

// HostLoad reports tracked live VPs on the host from the load index.
func (t *MPVMTarget) HostLoad(host int) int { return t.idx.Load(host) }

// bruteHostLoad recounts by rescanning every tracked VP — the pre-index
// algorithm, kept as the oracle for the index cross-check test.
func (t *MPVMTarget) bruteHostLoad(host int) int {
	n := 0
	for _, orig := range t.vps {
		mt := t.sys.Task(orig)
		if mt != nil && !mt.Exited() && int(mt.Host().ID()) == host {
			n++
		}
	}
	return n
}

// EvacuateHost migrates every tracked VP off the host, placed by the one
// pick rule over the receivers its image may go to.
func (t *MPVMTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	var vps []core.TID
	for _, orig := range t.vps {
		mt := t.sys.Task(orig)
		if mt != nil && !mt.Exited() && !mt.Migrating() && int(mt.Host().ID()) == host {
			vps = append(vps, orig)
		}
	}
	from := t.sys.Machine().Cluster().Host(netsim.HostID(host))
	return orderMoves(t.idx, from, len(vps), func(i, dest int) error {
		if dest < 0 {
			return errs.Newf(CodeNoDestination, "no compatible destination for %v", vps[i]).
				AddContext("from", host).AddContext("reason", reason)
		}
		return t.sys.Migrate(vps[i], dest, reason)
	})
}

// MoveOne migrates one tracked VP from one host to another.
func (t *MPVMTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	for _, orig := range t.vps {
		mt := t.sys.Task(orig)
		if mt == nil || mt.Exited() || mt.Migrating() || int(mt.Host().ID()) != from {
			continue
		}
		return t.sys.Migrate(orig, to, reason)
	}
	return errs.Newf(CodeNoMovable, "no movable VP on host %d", from).
		AddContext("to", to).AddContext("reason", reason)
}
