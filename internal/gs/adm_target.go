package gs

import (
	"pvmigrate/internal/adm"
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/pvm"
)

// ADMTarget adapts an ADM application to the scheduler: the scheduler's
// orders become application-level signals ("withdraw" / "rebalance"), and
// the application responds by moving data rather than processes. Load here
// is data shares, not VPs. Shares live in an incremental LoadIndex:
// slaves never change hosts (their data does), so the index updates on
// share changes (NoteShare/Resync, pushed by the application after a
// repartition) and on slave exits (via the task exit hook), making
// HostLoad O(1) instead of a rescan over every slave.
type ADMTarget struct {
	// slaves maps slave rank → its task.
	slaves []*pvm.Task
	// share reports the current exemplar share of a slave (the application
	// exposes it; for simple uses, a fixed closure works). Resync pulls it.
	share func(rank int) int
	idx   *LoadIndex
	// cur is the share currently counted per rank (0 once the slave exits).
	cur []int
}

// NewADMTarget wraps an ADM application's slave tasks. share reports each
// slave's current data share for load accounting (nil means "1 each").
// After the application repartitions, push the new shares with NoteShare
// or Resync; exits are observed automatically.
func NewADMTarget(slaves []*pvm.Task, share func(rank int) int) *ADMTarget {
	if share == nil {
		share = func(int) int { return 1 }
	}
	hosts := 0
	for _, task := range slaves {
		if task != nil && int(task.Host().ID()) >= hosts {
			hosts = int(task.Host().ID()) + 1
		}
	}
	t := &ADMTarget{
		slaves: slaves,
		share:  share,
		idx:    NewLoadIndex(hosts),
		cur:    make([]int, len(slaves)),
	}
	for rank, task := range slaves {
		if task == nil {
			continue
		}
		if !task.Exited() {
			t.cur[rank] = share(rank)
			t.idx.Add(int(task.Host().ID()), t.cur[rank])
		}
		rank := rank
		task.OnExit(func(*pvm.Task) { t.noteSlaveExit(rank) })
	}
	return t
}

// Index returns the incremental load table that serves HostLoad.
func (t *ADMTarget) Index() *LoadIndex { return t.idx }

func (t *ADMTarget) noteSlaveExit(rank int) {
	if t.cur[rank] != 0 {
		t.idx.Add(int(t.slaves[rank].Host().ID()), -t.cur[rank])
		t.cur[rank] = 0
	}
}

// NoteShare updates the indexed data share of one slave after the
// application repartitioned.
func (t *ADMTarget) NoteShare(rank, share int) {
	if rank < 0 || rank >= len(t.slaves) {
		return
	}
	task := t.slaves[rank]
	if task == nil || task.Exited() {
		return
	}
	t.idx.Add(int(task.Host().ID()), share-t.cur[rank])
	t.cur[rank] = share
}

// Resync pulls the current share of every live slave through the share
// callback — a bulk NoteShare after a repartition the application did not
// announce rank by rank.
func (t *ADMTarget) Resync() {
	for rank := range t.slaves {
		if task := t.slaves[rank]; task != nil && !task.Exited() {
			t.NoteShare(rank, t.share(rank))
		}
	}
}

// HostLoad reports tracked data shares on the host from the load index.
func (t *ADMTarget) HostLoad(host int) int { return t.idx.Load(host) }

// bruteHostLoad recounts by rescanning every slave — the pre-index
// algorithm, kept as the oracle for the index cross-check test.
func (t *ADMTarget) bruteHostLoad(host int) int {
	n := 0
	for rank, task := range t.slaves {
		if task != nil && !task.Exited() && int(task.Host().ID()) == host {
			n += t.share(rank)
		}
	}
	return n
}

// EvacuateHost signals "withdraw" to every slave on the host; their data
// fragments across the remaining slaves at the next flag check.
func (t *ADMTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	signalled := 0
	for _, task := range t.slaves {
		if task == nil || task.Exited() || int(task.Host().ID()) != host {
			continue
		}
		adm.Signal(task, adm.Event{Kind: "withdraw", Reason: reason})
		signalled++
	}
	if signalled == 0 {
		return 0, errs.Newf(CodeNoMovable, "no ADM slave on host %d", host).
			AddContext("reason", reason)
	}
	return signalled, nil
}

// MoveOne signals "rebalance" to one slave on the overloaded host: the
// application recomputes its power-weighted partition, which shifts data
// toward less loaded machines (the destination is implied by the powers,
// not commanded — ADM's accuracy advantage, §3.4.3).
func (t *ADMTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	for _, task := range t.slaves {
		if task == nil || task.Exited() || int(task.Host().ID()) != from {
			continue
		}
		adm.Signal(task, adm.Event{Kind: "rebalance", Reason: reason})
		return nil
	}
	return errs.Newf(CodeNoMovable, "no ADM slave on host %d", from).
		AddContext("to", to).AddContext("reason", reason)
}
