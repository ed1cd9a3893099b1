// Package plan executes declarative bulk-migration plans over an MPVM
// system: N task groups, each moved cold (stop-and-copy) or warm
// (iterative precopy), to an explicit destination or one picked per task
// by a gs placement strategy, with a per-group concurrency budget staging
// the cutovers. Evacuating a reclaimed host — every VP it runs, warm, at
// most two transfers in flight — becomes one plan execution instead of a
// hand-rolled migration loop, the shape bulk VM-migration planners (cold
// and warm plans with scheduled cutover) give operators.
//
// Groups run strictly in order: group i+1 starts only once every
// migration of group i has settled (completed or aborted). Within a
// group, up to Concurrency migrations are in flight at once; a cold-mode
// group with Concurrency 1 is therefore byte-for-byte the sequential
// Migrate loop the scheduler's evacuation path has always run.
package plan

import (
	"fmt"

	"pvmigrate/internal/core"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/sim"
)

// Mode selects the migration protocol for one group.
type Mode string

// Group migration modes. The empty string means cold.
const (
	ModeCold Mode = "cold"
	ModeWarm Mode = "warm"
)

// UnplacedDest marks a group whose destinations come from the Placement
// strategy rather than a fixed host.
const UnplacedDest = -1

// Group is one stage of a plan: which VPs move, how, and where to.
type Group struct {
	// Name labels the group in results and traces.
	Name string
	// VPs lists the victims by stable tid. Empty means "every live VP on
	// FromHost at the moment the group starts" — the evacuation selector.
	VPs []core.TID
	// FromHost feeds the implicit selector when VPs is empty. Ignored (and
	// may be UnplacedDest) when VPs is explicit.
	FromHost int
	// Mode picks cold (stop-and-copy) or warm (iterative precopy) for
	// every VP in the group. Empty means cold.
	Mode Mode
	// Dest fixes the destination host, or UnplacedDest to pick one per VP
	// with the Placement strategy.
	Dest int
	// Placement names the gs placement strategy ("least-loaded",
	// "first-fit", "dest-swap") used when Dest is UnplacedDest. Empty means
	// least-loaded.
	Placement string
	// Concurrency caps in-flight migrations within the group; 0 or 1 is
	// fully staged (one at a time).
	Concurrency int
	// Reason tags the migrations (decision logs, records). Empty means
	// owner-reclaim, the canonical evacuation trigger.
	Reason core.MigrationReason
}

// Spec is a whole plan: named, ordered groups.
type Spec struct {
	Name   string
	Groups []Group
}

// Validate rejects specs that cannot be executed, naming the offending
// group. Destination liveness and per-VP validity are runtime concerns
// (they may change between submission and execution); shape is not.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("plan: spec needs a name")
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("plan %q: no groups", s.Name)
	}
	for i, g := range s.Groups {
		switch g.Mode {
		case "", ModeCold, ModeWarm:
		default:
			return fmt.Errorf("plan %q group %d: unknown mode %q", s.Name, i, g.Mode)
		}
		if len(g.VPs) == 0 && g.FromHost < 0 {
			return fmt.Errorf("plan %q group %d: no VPs and no FromHost selector", s.Name, i)
		}
		if g.Dest < 0 && g.Dest != UnplacedDest {
			return fmt.Errorf("plan %q group %d: bad dest %d", s.Name, i, g.Dest)
		}
		if g.Dest == UnplacedDest && gs.PlacementByName(g.Placement) == nil {
			return fmt.Errorf("plan %q group %d: unknown placement %q", s.Name, i, g.Placement)
		}
		if g.Concurrency < 0 {
			return fmt.Errorf("plan %q group %d: negative concurrency", s.Name, i)
		}
	}
	return nil
}

// VPOutcome is the settled fate of one planned migration.
type VPOutcome struct {
	VP   core.TID
	Dest int
	// Err is empty on success; otherwise the synchronous validation error
	// or "aborted" when the protocol abandoned the move mid-flight.
	Err string
}

// GroupResult summarizes one settled group.
type GroupResult struct {
	Name     string
	Moved    int
	Failed   int
	Outcomes []VPOutcome
}

// Result is the settled outcome of a whole plan.
type Result struct {
	Plan    string
	Moved   int
	Failed  int
	Groups  []GroupResult
	Elapsed sim.Time
}

// Executor drives plans over one MPVM system. It subscribes to the
// system's record/abort hooks once; concurrent plans are executed one at
// a time (Start queues by kernel proc scheduling order).
type Executor struct {
	sys  *mpvm.System
	rng  *sim.RNG
	cond *sim.Cond

	// pending maps a commanded VP to its outcome slot until the system
	// reports the migration settled.
	pending map[core.TID]*VPOutcome

	// queue serializes plan executions: one runner proc drains it, so two
	// overlapping Start calls (say, two owners reclaiming their machines in
	// the same second) never interleave their group barriers.
	queue   []queuedPlan
	running bool
}

type queuedPlan struct {
	spec Spec
	done func(Result)
}

// NewExecutor returns an executor over sys. The seed drives the placement
// strategies' probe randomness (dest-swap), keeping plan execution a pure
// function of (system state, spec, seed).
func NewExecutor(sys *mpvm.System, seed uint64) *Executor {
	e := &Executor{
		sys:     sys,
		rng:     sim.NewRNG(seed),
		cond:    sim.NewCond(sys.Machine().Kernel()),
		pending: make(map[core.TID]*VPOutcome),
	}
	sys.OnRecord(func(r core.MigrationRecord) { e.settle(r.VP, "") })
	sys.OnAbort(func(orig core.TID) { e.settle(orig, "aborted") })
	return e
}

func (e *Executor) settle(vp core.TID, errStr string) {
	o, ok := e.pending[vp]
	if !ok {
		return
	}
	delete(e.pending, vp)
	if errStr != "" {
		o.Err = errStr
	}
	e.cond.Broadcast()
}

// Start validates the spec and queues its execution. Plans run one at a
// time in submission order, each driven by a kernel proc; done (optional)
// receives the result once every group of that plan has settled.
func (e *Executor) Start(spec Spec, done func(Result)) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	e.queue = append(e.queue, queuedPlan{spec: spec, done: done})
	if e.running {
		return nil
	}
	e.running = true
	e.sys.Machine().Kernel().Spawn("plan:"+spec.Name, func(p *sim.Proc) {
		for len(e.queue) > 0 {
			job := e.queue[0]
			e.queue = e.queue[1:]
			res := e.runSpec(p, job.spec)
			if job.done != nil {
				job.done(res)
			}
		}
		e.running = false
	})
	return nil
}

func (e *Executor) runSpec(p *sim.Proc, spec Spec) Result {
	began := p.Now()
	res := Result{Plan: spec.Name}
	for i := range spec.Groups {
		gr := e.runGroup(p, &spec.Groups[i], i)
		res.Moved += gr.Moved
		res.Failed += gr.Failed
		res.Groups = append(res.Groups, gr)
	}
	res.Elapsed = p.Now() - began
	return res
}

// victims resolves a group's victim list at the moment the group starts.
func (e *Executor) victims(g *Group) []core.TID {
	if len(g.VPs) > 0 {
		return g.VPs
	}
	return e.sys.VPsOnHost(g.FromHost)
}

// view snapshots per-host load (live VPs per host) and receiver
// eligibility for the placement strategies. Rebuilt at each group start;
// within a group, commanded moves update it optimistically so staged
// picks spread instead of dogpiling the initially-lightest host.
func (e *Executor) view() *gs.ShardView {
	m := e.sys.Machine()
	idx := gs.NewLoadIndex(m.NHosts())
	for _, vp := range e.sys.VPIDs() {
		mt := e.sys.Task(vp)
		if mt == nil || mt.Exited() || mt.Orphaned() {
			continue
		}
		idx.NoteSpawn(int(mt.Host().ID()))
	}
	elig := gs.NewHostSet(m.NHosts())
	for h := 0; h < m.NHosts(); h++ {
		d := m.Daemon(h)
		elig.Put(h, d != nil && d.Host().Alive())
	}
	return &gs.ShardView{Index: idx, Elig: elig}
}

// pickDest chooses a destination for one VP leaving from. The placement
// policy's improvement guard may decline (moving between near-equal hosts
// just swaps the imbalance); an evacuation must move regardless, so a
// decline falls back to the least-loaded live host other than the source.
func (e *Executor) pickDest(v *gs.ShardView, pol gs.Placement, from int) int {
	if dest := pol.Pick(v, from, v.Index.Load(from), e.rng); dest >= 0 {
		return dest
	}
	was := v.Elig.Has(from)
	v.Elig.Put(from, false)
	dest, _ := v.Index.BestEligible(v.Elig)
	v.Elig.Put(from, was)
	return dest
}

// runGroup issues every migration of one group, at most Concurrency in
// flight, and blocks until all of them settled.
func (e *Executor) runGroup(p *sim.Proc, g *Group, idx int) GroupResult {
	name := g.Name
	if name == "" {
		name = fmt.Sprintf("group%d", idx)
	}
	vps := e.victims(g)
	gr := GroupResult{Name: name, Outcomes: make([]VPOutcome, 0, len(vps))}
	budget := g.Concurrency
	if budget < 1 {
		budget = 1
	}
	pol := gs.PlacementByName(g.Placement)
	v := e.view()
	for _, vp := range vps {
		for len(e.pending) >= budget {
			if err := e.cond.Wait(p); err != nil {
				return e.drain(p, gr)
			}
		}
		// The capacity is preallocated above, so appending never moves the
		// backing array and the slot pointer held in pending stays valid.
		gr.Outcomes = append(gr.Outcomes, VPOutcome{VP: vp, Dest: g.Dest})
		out := &gr.Outcomes[len(gr.Outcomes)-1]
		mt := e.sys.Task(vp)
		if mt == nil || mt.Exited() {
			out.Err = "vp not running"
			continue
		}
		from := int(mt.Host().ID())
		if out.Dest == UnplacedDest {
			out.Dest = e.pickDest(v, pol, from)
			if out.Dest < 0 || out.Dest == from {
				out.Err = "no eligible destination"
				continue
			}
		}
		reason := g.Reason
		if reason == "" {
			reason = core.ReasonOwnerReclaim
		}
		var err error
		if g.Mode == ModeWarm {
			err = e.sys.MigrateWarm(vp, out.Dest, reason)
		} else {
			err = e.sys.Migrate(vp, out.Dest, reason)
		}
		if err != nil {
			out.Err = err.Error()
			continue
		}
		v.Index.NoteMoved(from, out.Dest)
		e.pending[vp] = out
	}
	return e.drain(p, gr)
}

// drain waits for every in-flight migration of the current group to
// settle, then tallies the final outcomes.
func (e *Executor) drain(p *sim.Proc, gr GroupResult) GroupResult {
	for len(e.pending) > 0 {
		if err := e.cond.Wait(p); err != nil {
			break
		}
	}
	for i := range gr.Outcomes {
		if gr.Outcomes[i].Err == "" {
			gr.Moved++
		} else {
			gr.Failed++
		}
	}
	return gr
}
