package gs

import (
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
)

// CountTarget is a synthetic Target whose work units are pure counters in
// a LoadIndex: MoveOne is an O(1) index update with no migration
// protocol behind it. It exists for fleet-scale scheduling studies — a
// 1,000-host × 100,000-VP owner-reclaim storm is tractable when each VP
// is a counter rather than a simulated process — and for benchmarking the
// scheduler's decision path in isolation.
type CountTarget struct {
	cl  *cluster.Cluster
	idx *LoadIndex
	// elig is every host's receiver eligibility (alive, owner-free), kept
	// current by a cluster watch.
	elig HostSet
}

// NewCountTarget returns a CountTarget over the cluster with every host
// at load 0.
func NewCountTarget(cl *cluster.Cluster) *CountTarget {
	hs := cl.Hosts()
	t := &CountTarget{cl: cl, idx: NewLoadIndex(len(hs)), elig: NewHostSet(len(hs))}
	for i, h := range hs {
		t.elig.Put(i, h.Alive() && !h.OwnerActive())
	}
	cl.Watch(func(h *cluster.Host, c cluster.Change) {
		if c != cluster.RunqChanged {
			t.elig.Put(int(h.ID()), h.Alive() && !h.OwnerActive())
		}
	})
	return t
}

// Index returns the incremental load table that serves HostLoad.
func (t *CountTarget) Index() *LoadIndex { return t.idx }

// Seed places n work units on host — initial placement, not a move.
func (t *CountTarget) Seed(host, n int) { t.idx.Add(host, n) }

// HostLoad implements Target.
func (t *CountTarget) HostLoad(host int) int { return t.idx.Load(host) }

// MoveOne implements Target: one counter moves between hosts.
func (t *CountTarget) MoveOne(from, to int, reason core.MigrationReason) error {
	if t.idx.Load(from) == 0 {
		return errs.Newf(CodeNoMovable, "no movable work unit on host %d", from).
			AddContext("to", to).AddContext("reason", reason)
	}
	hs := t.cl.Hosts()
	if to < 0 || to >= len(hs) || !hs[to].Alive() {
		return errs.Newf(CodeNoDestination, "destination host %d not alive", to).
			AddContext("from", from).AddContext("reason", reason)
	}
	t.idx.NoteMoved(from, to)
	return nil
}

// EvacuateHost implements Target: every counter on the host spreads over
// the least-loaded other alive, owner-free hosts, rebalancing as it goes
// (each unit lands on the currently least-loaded destination, lowest host id
// on ties — deterministic), in one LoadIndex.Spread.
func (t *CountTarget) EvacuateHost(host int, reason core.MigrationReason) (int, error) {
	n := t.idx.Load(host)
	if n == 0 {
		return 0, errs.Newf(CodeNoMovable, "no work unit on host %d", host).
			AddContext("reason", reason)
	}
	moved := t.idx.Spread(host, n, t.elig)
	if moved < n {
		return moved, errs.Newf(CodeNoDestination, "no destination for %d stranded units", n-moved).
			AddContext("from", host).AddContext("reason", reason)
	}
	return moved, nil
}
