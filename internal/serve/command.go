package serve

import (
	"sort"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/plan"
	"pvmigrate/internal/sim"
)

// CommandKind names a control-plane mutation.
type CommandKind string

const (
	// CmdAdvance runs the event loop Advance virtual time forward.
	CmdAdvance CommandKind = "advance"
	// CmdSubmit starts the job described by Job.
	CmdSubmit CommandKind = "submit"
	// CmdMigrate commands one manual migration.
	CmdMigrate CommandKind = "migrate"
	// CmdFault injects one fault at the current instant.
	CmdFault CommandKind = "fault"
	// CmdOwner flips a host's owner-active state.
	CmdOwner CommandKind = "owner"
	// CmdRollback forces the FT manager to roll the opt job back to its
	// last committed checkpoint.
	CmdRollback CommandKind = "rollback"
	// CmdPlan submits a declarative bulk-migration plan (internal/plan):
	// ordered task groups moved cold or warm under a concurrency budget.
	CmdPlan CommandKind = "plan"
)

// MigrateArgs names one manual migration.
type MigrateArgs struct {
	// Orig is the task's stable (original) tid.
	Orig core.TID `json:"orig"`
	// To is the destination host.
	To int `json:"to"`
}

// FaultArgs is the wire form of one ft.Fault, injected "now".
type FaultArgs struct {
	// Kind is the ft.FaultKind string: host-crash, host-revive,
	// link-partition, link-heal, link-loss.
	Kind string `json:"kind"`
	// Host applies to host-crash / host-revive.
	Host int `json:"host,omitempty"`
	// OutageMs, for host-crash, revives the host that much later.
	OutageMs int64 `json:"outage_ms,omitempty"`
	// Groups, for link-partition, maps host id to isolation group.
	Groups map[int]int `json:"groups,omitempty"`
	// LossRate and LossSeed apply to link-loss.
	LossRate float64 `json:"loss_rate,omitempty"`
	LossSeed uint64  `json:"loss_seed,omitempty"`
}

// OwnerArgs flips a host's owner-active state.
type OwnerArgs struct {
	Host   int  `json:"host"`
	Active bool `json:"active"`
}

// PlanGroup is the wire form of one plan.Group. Pointer fields distinguish
// "absent" from host 0: a nil Dest means the Placement strategy picks a
// destination per VP; a nil FromHost means the group names its VPs
// explicitly.
type PlanGroup struct {
	Name string `json:"name,omitempty"`
	// VPs lists victims by stable tid. Empty means every live VP on
	// FromHost when the group starts.
	VPs      []int `json:"vps,omitempty"`
	FromHost *int  `json:"from_host,omitempty"`
	// Mode is "cold" (default) or "warm".
	Mode string `json:"mode,omitempty"`
	// Dest fixes the destination host; nil lets Placement pick per VP.
	Dest      *int   `json:"dest,omitempty"`
	Placement string `json:"placement,omitempty"`
	// Concurrency caps in-flight migrations in the group (0/1 = staged).
	Concurrency int `json:"concurrency,omitempty"`
	// Reason tags the migrations; empty means owner-reclaim.
	Reason string `json:"reason,omitempty"`
}

// PlanArgs is the wire form of one plan.Spec.
type PlanArgs struct {
	Name   string      `json:"name"`
	Groups []PlanGroup `json:"groups"`
}

// Command is one journaled control-plane mutation. Seq and At are stamped
// by the live daemon; replay verifies At against its own clock, so a
// journal that drifted (hand-edited, mixed sessions) refuses to replay
// rather than silently diverging.
type Command struct {
	Seq  int         `json:"seq"`
	At   sim.Time    `json:"at"`
	Kind CommandKind `json:"kind"`

	Advance sim.Time     `json:"advance,omitempty"`
	Job     *JobSpec     `json:"job,omitempty"`
	Migrate *MigrateArgs `json:"migrate,omitempty"`
	Fault   *FaultArgs   `json:"fault,omitempty"`
	Owner   *OwnerArgs   `json:"owner,omitempty"`
	Plan    *PlanArgs    `json:"plan,omitempty"`
}

// Apply executes one command against the live cluster. Every executed
// command — including one whose action fails, since the failure is itself
// deterministic — lands in the history and counts toward the fingerprint.
// The returned error is the action's error; a CodeReplay error (clock
// mismatch) or a CodeShutdown one (the Core is closed) means the command
// did not execute at all.
func (c *Core) Apply(cmd Command) error {
	if c.closed {
		return errs.Newf(CodeShutdown, "command %d: the cluster is closed", cmd.Seq).
			AddContext("kind", string(cmd.Kind))
	}
	if cmd.At != c.w.K.Now() {
		return errs.Newf(CodeReplay, "command %d stamped at %v but clock is %v",
			cmd.Seq, cmd.At, c.w.K.Now()).AddContext("kind", string(cmd.Kind))
	}
	var err error
	switch cmd.Kind {
	case CmdAdvance:
		err = c.applyAdvance(cmd.Advance)
	case CmdSubmit:
		err = c.applySubmit(cmd.Job)
	case CmdMigrate:
		err = c.applyMigrate(cmd.Migrate)
	case CmdFault:
		err = c.applyFault(cmd.Fault)
	case CmdOwner:
		err = c.applyOwner(cmd.Owner)
	case CmdRollback:
		err = c.inKernel(c.w.Mgr.ForceRollback)
	case CmdPlan:
		err = c.applyPlan(cmd.Plan)
	default:
		err = errs.Newf(CodeUnknownCommand, "unknown command kind %q", cmd.Kind)
	}
	c.history = append(c.history, cmd)
	c.applied++
	if err != nil {
		c.failed++
	}
	return err
}

// inKernel runs fn inside a kernel event at the current instant and pumps
// the event loop until the instant is drained, so fn and everything it
// triggers synchronously (interrupts, sends) observe kernel context.
func (c *Core) inKernel(fn func() error) error {
	var err error
	c.w.K.ScheduleAt(c.w.K.Now(), func() { err = fn() })
	c.w.K.RunUntil(c.w.K.Now())
	return err
}

func (c *Core) applyAdvance(d sim.Time) error {
	if d <= 0 {
		return errs.Newf(CodeBadRequest, "advance must be positive, got %v", d)
	}
	c.w.K.RunUntil(c.w.K.Now() + d)
	return nil
}

func (c *Core) applySubmit(spec *JobSpec) error {
	if spec == nil {
		return errs.New(CodeBadRequest, "submit command carries no job spec", nil)
	}
	_, err := c.submit(*spec)
	// The spawns scheduled kernel events at the current instant; drain
	// them so the tasks exist before the next command or query.
	c.w.K.RunUntil(c.w.K.Now())
	return err
}

func (c *Core) applyMigrate(args *MigrateArgs) error {
	if args == nil {
		return errs.New(CodeBadRequest, "migrate command carries no args", nil)
	}
	if err := c.checkHost(args.To); err != nil {
		return err
	}
	if c.w.MPVM.Task(args.Orig) == nil {
		return errs.Newf(CodeNotFound, "no task with orig tid %d", args.Orig)
	}
	return c.inKernel(func() error {
		if err := c.w.MPVM.Migrate(args.Orig, args.To, core.ReasonManual); err != nil {
			return errs.New(CodeConflict, "migration rejected", err).
				AddContext("orig", int(args.Orig)).AddContext("to", args.To)
		}
		return nil
	})
}

func (c *Core) applyFault(args *FaultArgs) error {
	if args == nil {
		return errs.New(CodeBadRequest, "fault command carries no args", nil)
	}
	f := ft.Fault{
		At:       c.w.K.Now(),
		Kind:     ft.FaultKind(args.Kind),
		Host:     args.Host,
		Outage:   time.Duration(args.OutageMs) * time.Millisecond,
		LossRate: args.LossRate,
		LossSeed: args.LossSeed,
	}
	switch f.Kind {
	case ft.HostCrash, ft.HostRevive:
		if err := c.checkHost(f.Host); err != nil {
			return err
		}
	case ft.LinkPartition:
		f.Groups = make(map[netsim.HostID]int, len(args.Groups))
		hosts := make([]int, 0, len(args.Groups))
		for h := range args.Groups {
			hosts = append(hosts, h)
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			if err := c.checkHost(h); err != nil {
				return err
			}
			f.Groups[netsim.HostID(h)] = args.Groups[h]
		}
	case ft.LinkHeal, ft.LinkLoss:
	default:
		return errs.Newf(CodeBadRequest, "unknown fault kind %q", args.Kind).
			AddContext("kinds", "host-crash,host-revive,link-partition,link-heal,link-loss")
	}
	c.w.Inj.Install(ft.Plan{Faults: []ft.Fault{f}})
	c.w.K.RunUntil(c.w.K.Now())
	return nil
}

// applyPlan converts the wire form into a plan.Spec, validates it, and
// hands it to the core's executor. The command succeeds when the plan is
// accepted; the plan itself settles asynchronously as later advances run
// the migrations (GET /v1/plans reports progress).
func (c *Core) applyPlan(args *PlanArgs) error {
	if args == nil {
		return errs.New(CodeBadRequest, "plan command carries no args", nil)
	}
	spec := plan.Spec{Name: args.Name}
	for i, g := range args.Groups {
		pg := plan.Group{
			Name:        g.Name,
			FromHost:    plan.UnplacedDest,
			Mode:        plan.Mode(g.Mode),
			Dest:        plan.UnplacedDest,
			Placement:   g.Placement,
			Concurrency: g.Concurrency,
			Reason:      core.MigrationReason(g.Reason),
		}
		for _, vp := range g.VPs {
			pg.VPs = append(pg.VPs, core.TID(vp))
		}
		if g.FromHost != nil {
			if err := c.checkHost(*g.FromHost); err != nil {
				return errs.AddContext(err, "group", i)
			}
			pg.FromHost = *g.FromHost
		}
		if g.Dest != nil {
			if err := c.checkHost(*g.Dest); err != nil {
				return errs.AddContext(err, "group", i)
			}
			pg.Dest = *g.Dest
		}
		spec.Groups = append(spec.Groups, pg)
	}
	if err := spec.Validate(); err != nil {
		return errs.New(CodeBadRequest, "invalid plan", err)
	}
	st := &PlanStatus{ID: len(c.plans) + 1, Name: spec.Name, SubmittedAt: c.w.K.Now()}
	err := c.inKernel(func() error {
		return c.ex.Start(spec, func(r plan.Result) {
			st.Done = true
			st.Result = &r
		})
	})
	if err != nil {
		return errs.New(CodeConflict, "plan rejected", err)
	}
	c.plans = append(c.plans, st)
	return nil
}

func (c *Core) applyOwner(args *OwnerArgs) error {
	if args == nil {
		return errs.New(CodeBadRequest, "owner command carries no args", nil)
	}
	if err := c.checkHost(args.Host); err != nil {
		return err
	}
	return c.inKernel(func() error {
		c.w.Cluster.Host(netsim.HostID(args.Host)).SetOwnerActive(args.Active)
		return nil
	})
}
