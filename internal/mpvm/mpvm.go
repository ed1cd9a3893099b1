// Package mpvm implements Migratable PVM: transparent migration of
// process-based virtual processors, following the four-stage protocol of
// the paper's §2.1:
//
//  1. Migration event — the global scheduler sends a migrate message to the
//     mpvmd on the to-be-vacated machine.
//  2. Message flushing — the mpvmd sends a flush message to all other
//     processes; each acknowledges, and from then on a send to the
//     migrating process blocks the sender.
//  3. VP state transfer — a skeleton process (same executable) starts on
//     the destination host; a TCP connection carries the migrating
//     process's state (data, heap, stack, register context, and buffered
//     messages); the skeleton assumes the state.
//  4. Restart — the migrated process re-enrolls with the mpvmd on the new
//     host (getting a new tid), and sends restart messages that unblock
//     stalled senders and publish the tid remapping.
//
// Transparency is preserved exactly as in the paper: application code keeps
// using the tids it first learned; the library remaps on every send and
// receive (§4.1.1's tid re-mapping overhead), sends are intercepted to
// implement flush blocking, and the re-implemented pvm_recv allows a
// process blocked in receive to migrate.
package mpvm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Errors returned by migration operations.
var (
	ErrUnknownTask   = errors.New("mpvm: unknown task")
	ErrIncompatible  = errors.New("mpvm: destination host is not migration compatible")
	ErrAlreadyMoving = errors.New("mpvm: task is already migrating")
	ErrSameHost      = errors.New("mpvm: task is already on the destination host")
	ErrNoMemory      = errors.New("mpvm: destination host lacks physical memory")
)

// The migration cost model, fitted to the paper's Table 2 (see DESIGN.md
// §5). The paper measures one testbed, so these are constants of it, not
// options.
const (
	// skeletonStart is fork+exec+page-in of the skeleton process on the
	// destination host plus its handshake with the mpvmd.
	skeletonStart sim.Time = 780 * time.Millisecond
	// transferChunk is the write() granularity of the state transfer.
	transferChunk = 64 << 10
	// transferCopyBps is the extra per-byte copy cost (user→kernel buffer
	// and back) paid during state transfer, on top of wire time.
	transferCopyBps float64 = 12e6
	// restartOverhead is re-enrolling with the new mpvmd and rebinding
	// signal handlers before the restart broadcast.
	restartOverhead sim.Time = 180 * time.Millisecond
	// ctlBytes is the size of protocol control messages.
	ctlBytes = 64
	// skeletonTimeout bounds how long a migrating process waits for the
	// destination mpvmd to report a listening skeleton before abandoning
	// the migration and resuming on the source host (the destination may
	// have crashed after stage 1).
	skeletonTimeout sim.Time = 5 * time.Second

	// warmCutoverBytes is the residual-delta bound for warm (iterative
	// precopy) migration: once the state dirtied during the last round is
	// at or below this, the task is frozen and the final delta moves.
	warmCutoverBytes = 64 << 10
	// warmMaxRounds caps the precopy rounds; a task dirtying faster than
	// the wire drains is cut over after this many rounds regardless of the
	// residual.
	warmMaxRounds = 8
	// warmDirtyBps is the dirty rate (bytes of state rewritten per second
	// of virtual time) of a task that never calls SetDirtyRate.
	warmDirtyBps float64 = 1e6
)

// Config is the field-less parameter of New: bench/, which ordinary PRs may
// not edit, compiles against mpvm.New(m, mpvm.Config{}). The next
// benchmark-archetype PR drops it (ROADMAP item 8(d)).
type Config struct{}

// System is the MPVM extension over a PVM machine: it installs protocol
// handlers on every daemon (turning them into mpvmds) and tracks migratable
// tasks.
type System struct {
	// Placements are reported on reintegration, respawn and the current
	// incarnation's exit (host -1; a replaced one's exit is silent).
	core.Ledger[core.TID]

	m *pvm.Machine

	// tasks by original (stable) tid.
	tasks map[core.TID]*MTask
	// incarnations holds every incarnation a stable tid has ever had, in
	// creation order: the initial spawn plus one entry per Respawn. The
	// chaos invariant checkers read it to assert that at most one
	// incarnation per tid is ever left alive once the system quiesces.
	incarnations map[core.TID][]*MTask
	// orphans are fenced incarnations that may still be running somewhere
	// unreachable (a partitioned host whose silence got it declared dead).
	// They are reaped when their host rejoins.
	orphans []*MTask
	// globalRemap: original tid → current tid, the authoritative view used
	// for daemon-level forwarding of stale messages.
	globalRemap map[core.TID]core.TID

	// in-flight migrations by original tid.
	migrations map[core.TID]*migration
	// ordered holds the stage-1 commands still on the wire: original tid →
	// source host. An order leaves it when its command arrives or when the
	// source host is lost (the command then never arrives).
	ordered map[core.TID]int

	// unreachable marks hosts whose daemons cannot acknowledge anything —
	// crashed, or partitioned away and declared dead by silence. Flush
	// barriers created while a host is here exclude it from the ack count
	// (its cluster.Host may still say Alive: a partition severs the link,
	// not the machine). Cleared when the host recovers or rejoins.
	unreachable map[int]bool

	rpcSeq  int
	rpcWait map[int]*rpcPending

	// warmByDefault turns every Migrate into a warm precopy migration —
	// the knob evacuation drivers (gs, chaos) flip to move whole hosts
	// warm without teaching every intermediate layer a mode parameter.
	warmByDefault bool
}

// SetWarmByDefault makes every subsequent Migrate run the warm precopy
// protocol (precopy.go) instead of stop-and-copy. Evacuation drivers use it
// to move whole hosts warm through the unchanged gs/ft plumbing.
func (s *System) SetWarmByDefault(on bool) { s.warmByDefault = on }

// finishMigration records a completed migration exactly once per entry, no
// matter how many protocol paths (cutover completion, late host-loss
// handling, a retried confirm) reach it: its record lands once or not at all.
func (s *System) finishMigration(mig *migration, rec core.MigrationRecord) {
	if mig.recorded {
		return
	}
	mig.recorded = true
	s.Record(rec)
}

type rpcPending struct {
	cond  *sim.Cond
	reply any
}

// migration tracks one in-progress migration at the source mpvmd. The same
// entry also carries a checkpoint flush (FlushAndHold): held non-nil means
// stage 2 completes into the checkpoint protocol instead of signalling a
// victim.
type migration struct {
	order     core.MigrationOrder
	orig      core.TID
	srcHost   int
	start     sim.Time
	offSource sim.Time
	// flush is the stage-2 barrier over the hosts reachable when it opened.
	flush core.Barrier
	// held (checkpoint only) wakes the FlushAndHold caller once flush is done.
	held *sim.Cond

	// warm prefixes the cutover with iterative precopy rounds
	// (precopy.go); stop-and-copy is the zero-round case.
	warm bool
	// recorded guards finishMigration: the record for this migration has
	// been appended and must never be appended again.
	recorded bool
	// Transfer bookkeeping: precopy rounds completed and bytes streamed
	// before the cutover (both zero for stop-and-copy), and the instant the
	// victim stopped.
	rounds       int
	precopyBytes int
	frozen       sim.Time
	// wake (warm only) is broadcast whenever the migration's state changes
	// (victim froze, migration cancelled) so the precopy proc re-examines
	// it.
	wake *sim.Cond
	// victimFrozen / released carry the warm freeze handshake between the
	// precopy proc and the victim's signal handler.
	victimFrozen bool
	released     bool
	cancelled    bool
}

// New wraps a PVM machine with MPVM protocol support.
func New(m *pvm.Machine, _ Config) *System {
	s := &System{
		m:            m,
		tasks:        make(map[core.TID]*MTask),
		incarnations: make(map[core.TID][]*MTask),
		globalRemap:  make(map[core.TID]core.TID),
		migrations:   make(map[core.TID]*migration),
		ordered:      make(map[core.TID]int),
		unreachable:  make(map[int]bool),
		rpcWait:      make(map[int]*rpcPending),
	}
	// Registered as a daemon-init hook (not set directly) so daemons created
	// later by ReviveHost become mpvmds too.
	m.OnDaemonInit(func(d *pvm.Daemon) {
		d.Control = s.handleCtl
		d.ForwardUnknown = s.forwardStale
	})
	// A host dying mid-flush would otherwise leave every stage-2 barrier
	// waiting on an ack that can never arrive — and every sender to the
	// migrating task blocked forever behind it.
	m.Cluster().Watch(func(host *cluster.Host, c cluster.Change) {
		switch {
		case c != cluster.AvailChanged:
		case host.Alive():
			s.NoteHostReachable(int(host.ID()))
		default:
			s.NoteHostUnreachable(int(host.ID()))
		}
	})
	return s
}

// Machine returns the underlying PVM machine.
func (s *System) Machine() *pvm.Machine { return s.m }

// reachable reports whether host's daemon can acknowledge a broadcast.
// Flush barriers wait only on these: a flush that waited for a crashed host
// would hang every checkpoint taken after a failure.
func (s *System) reachable(host int) bool {
	return s.m.Cluster().Host(netsim.HostID(host)).Alive() && !s.unreachable[host]
}

// aliveDaemon returns any daemon on a live host, for broadcasts whose
// natural coordinator is gone.
func (s *System) aliveDaemon() *pvm.Daemon {
	for h := 0; h < s.m.NHosts(); h++ {
		if d := s.m.Daemon(h); d != nil && s.reachable(h) {
			return d
		}
	}
	return nil
}

// NoteHostUnreachable updates every in-flight flush barrier for the loss of
// a host: it is written off (its ack will never arrive), and a
// migration the host itself was coordinating is cancelled from a surviving
// daemon so flush-blocked senders elsewhere resume. Wired to cluster
// availability changes in New; the failure layer also calls it for hosts
// declared dead by silence (a partition drops acks just as surely as a
// crash).
func (s *System) NoteHostUnreachable(host int) {
	s.unreachable[host] = true
	// A stage-1 command on its way to the lost host's mpvmd never arrives:
	// its order settles as aborted.
	for _, orig := range sortedTIDs(s.ordered) {
		if s.ordered[orig] == host {
			delete(s.ordered, orig)
			s.Aborted(orig)
		}
	}
	for _, orig := range sortedTIDs(s.migrations) {
		mig, ok := s.migrations[orig]
		if !ok {
			continue // cancelled while handling an earlier entry
		}
		if mig.srcHost == host {
			if d := s.aliveDaemon(); d != nil {
				s.Trace(fmt.Sprintf("mpvmd%d", d.Host().ID()), "2:flush-abort",
					fmt.Sprintf("coordinator host%d lost; cancelling flush of %v", host, orig))
				s.cancelMigration(orig, d)
			}
			continue
		}
		if mig.flush.WriteOff(host) {
			s.maybeFinishFlush(mig)
		}
	}
}

// NoteHostReachable clears a host from the unreachable set: its daemon can
// acknowledge broadcasts again, so new flush barriers include it. Wired to
// cluster availability changes in New; the failure layer also calls it when
// a silent host's beats resume (healed partition).
func (s *System) NoteHostReachable(host int) {
	delete(s.unreachable, host)
}

// Incarnations returns every incarnation a stable tid has had, in creation
// order. The chaos invariant checkers use it to assert single-liveness.
func (s *System) Incarnations(orig core.TID) []*MTask { return s.incarnations[orig] }

// VPIDs returns the stable tids of all tasks ever spawned migratable.
func (s *System) VPIDs() []core.TID { return sortedTIDs(s.incarnations) }

// sortedTIDs returns m's keys in ascending order. A walk that sends
// frames, schedules events, fires hooks or writes trace state must not
// inherit map order.
func sortedTIDs[V any](m map[core.TID]V) []core.TID {
	ids := make([]core.TID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// VPsOnHost returns the stable tids of live migratable tasks currently
// placed on host, in ascending tid order. Evacuation plans use it to turn
// a FromHost group selector into a concrete victim list.
func (s *System) VPsOnHost(host int) []core.TID {
	var ids []core.TID
	for orig, mt := range s.tasks {
		if mt.Exited() || mt.orphaned {
			continue
		}
		if int(mt.Host().ID()) == host {
			ids = append(ids, orig)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Tasks returns the migratable tasks by original tid.
func (s *System) Task(orig core.TID) *MTask { return s.tasks[orig] }

// Placement reports the host of a VP's current incarnation, whether that
// incarnation is live (not exited; an orphan counts) and whether it is
// mid-migration. An unknown tid is host -1, not live.
func (s *System) Placement(orig core.TID) (host int, live, migrating bool) {
	mt := s.tasks[orig]
	if mt == nil {
		return -1, false, false
	}
	return int(mt.Host().ID()), !mt.Exited(), mt.Migrating()
}

// CurrentTID resolves an original tid to the task's current tid.
func (s *System) CurrentTID(orig core.TID) core.TID {
	if cur, ok := s.globalRemap[orig]; ok {
		return cur
	}
	return orig
}

// forwardStale re-routes messages addressed to a tid whose task has
// migrated away — the daemon-level safety net for messages that were in
// flight across a migration.
func (s *System) forwardStale(d *pvm.Daemon, msg *pvm.Message) bool {
	cur := msg.Dst
	for {
		next, ok := s.remapOnce(cur)
		if !ok {
			break
		}
		cur = next
	}
	if cur != msg.Dst {
		fwd := *msg
		fwd.Dst = cur
		fwd.Hops++
		d.Host().Iface().SendDgram(1, d.Host().ID(), 1, fwd.WireBytes(), &fwd)
		return true
	}
	// No remap known yet. If the destination is mid-migration (detached
	// from the source but not yet re-enrolled), hold the message briefly
	// and retry: the restart broadcast will install the remap.
	for _, orig := range sortedTIDs(s.migrations) {
		if s.CurrentTID(orig) == msg.Dst {
			retry := *msg
			retry.Hops++
			host := d.Host()
			s.m.Kernel().Schedule(20*time.Millisecond, func() {
				host.Iface().SendDgram(1, host.ID(), 1, retry.WireBytes(), &retry)
			})
			return true
		}
	}
	return false
}

func (s *System) remapOnce(tid core.TID) (core.TID, bool) {
	for _, mt := range s.tasks {
		if prev, ok := mt.tidHistoryNext[tid]; ok {
			return prev, true
		}
	}
	return core.NoTID, false
}

func (s *System) nextRPC() (int, *rpcPending) {
	s.rpcSeq++
	p := &rpcPending{cond: sim.NewCond(s.m.Kernel())}
	s.rpcWait[s.rpcSeq] = p
	return s.rpcSeq, p
}

func (s *System) completeRPC(id int, reply any) {
	if p, ok := s.rpcWait[id]; ok {
		delete(s.rpcWait, id)
		p.reply = reply
		p.cond.Broadcast()
	}
}
