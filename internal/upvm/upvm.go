// Package upvm implements the paper's UPVM system (§2.2): a virtual
// processor package supporting multi-threading and transparent migration
// through User Level Processes (ULPs).
//
// A ULP is lighter than a Unix process but heavier than a thread: it has a
// register context and stack like a thread, plus private data and heap
// space like a process — but no protection domain. Many ULPs live inside
// each Unix process (one UPVM process per host, SPMD style) and are
// scheduled non-preemptively by the UPVM library: a ULP runs until it
// blocks on a message receive, then another runnable ULP is scheduled.
//
// The address-space manager assigns every ULP a virtual address region that
// is globally unique across all processes of the application, so a migrated
// ULP lands at the same addresses and no pointer fixups are ever needed
// (paper Figure 2).
//
// Messaging: ULPs on the same process communicate by buffer hand-off (the
// library passes the message buffer straight to the destination ULP —
// no copy), which is why Table 3 shows UPVM *beating* plain PVM when
// communicating VPs are co-located. Remote messages ride the process's PVM
// channel with an extra UPVM routing header (marginally slower than MPVM).
//
// Migration follows the paper's four stages: the GS messages the process
// containing the ULP directly; the ULP's context is captured; a flush/ack
// round ensures no in-transit messages; state moves via a pvm_pkbyte/
// pvm_send sequence (with its extra copies — the prototype's measured
// transfer and accept rates are preserved as fitted constants); and the ULP
// is finally placed in its reserved address region and enqueued on the
// destination scheduler.
package upvm

import (
	"errors"
	"fmt"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// Errors returned by UPVM operations.
var (
	ErrUnknownULP   = errors.New("upvm: unknown ulp")
	ErrSameHost     = errors.New("upvm: ulp already on destination host")
	ErrMoving       = errors.New("upvm: ulp already migrating")
	ErrIncompatible = errors.New("upvm: destination not migration compatible")
)

// Reserved tags for the UPVM library's process-level messages.
const (
	tagData = 1 << 20 // application message wrapped with routing header
	tagCtl  = tagData + 1
	tagXfer = tagData + 2
)

// ulpHostNamespace is the pseudo host index used in application-visible
// ULP tids; ULP tids stay stable across migrations, matching the paper
// (tids in UPVM name ULPs, not processes).
const ulpHostNamespace = 62

// ULPTID returns the stable application-visible tid of ULP id.
func ULPTID(id int) core.TID { return core.MakeTID(ulpHostNamespace, id+1) }

// ULPFromTID inverts ULPTID; ok is false for non-ULP tids.
func ULPFromTID(tid core.TID) (int, bool) {
	if tid.Host() != ulpHostNamespace || tid.Local() < 1 {
		return 0, false
	}
	return tid.Local() - 1, true
}

// The UPVM cost model's fixed part (see DESIGN.md §5).
const (
	// ctxSwitch is a ULP context switch (save/restore registers, switch
	// stacks) in the library scheduler.
	ctxSwitch sim.Time = 45 * time.Microsecond
	// handoffCost is a local (same-process) message delivery: the library
	// hands the buffer pointer to the destination ULP.
	handoffCost sim.Time = 25 * time.Microsecond
	// remoteHeaderBytes is the extra UPVM routing information carried by
	// each remote message (the "marginally slower remote communication").
	remoteHeaderBytes = 32
	// xferChunk is the pvm_pkbyte granularity of ULP state transfer.
	xferChunk = 32 << 10
	// flushTimeout bounds the stage-2 flush barrier. A crashed peer is
	// detected at send time and leaves the barrier, but a live peer behind
	// a network partition accepts the datagram loss silently: its ack never
	// arrives, and an unbounded wait would wedge the migration forever with
	// the ULP captured — lost to the application. On expiry the migration
	// aborts and the ULP reverts to the source process. (Not from the paper:
	// the partition hardening of DESIGN.md §7e.)
	flushTimeout sim.Time = 2 * time.Second
)

// Config is what a caller chooses about UPVM. Zero fields take defaults.
// The migration rates are *fitted to the paper's measured prototype*
// (Table 4), which the authors describe as unoptimized — especially the
// accept mechanism; Extension D re-runs the table with tuned ones.
type Config struct {
	// XferBps is the effective source-side off-load rate of the prototype's
	// pkbyte/send transfer path (fitted: 0.3 MB off-loaded in ~1.6 s).
	XferBps float64
	// AcceptBps is the destination-side ULP accept/placement rate (fitted:
	// the paper's surprising 6.88 s migration vs 1.67 s obtrusiveness).
	AcceptBps float64
}

func (c Config) withDefaults() Config {
	if c.XferBps == 0 {
		c.XferBps = 195e3
	}
	if c.AcceptBps == 0 {
		c.AcceptBps = 62e3
	}
	return c
}

// System is one UPVM application: one process per host, ULPs spread across
// them.
type System struct {
	m       *pvm.Machine
	cfg     Config
	space   *AddressSpace
	procs   []*Process // by host
	ulps    map[int]*ULP
	records []core.MigrationRecord
	started bool

	// tracer, when set, receives one event per migration protocol stage —
	// used to reproduce the paper's Figure 3 as a timeline.
	tracer func(actor, stage, detail string)

	// placeHooks run whenever a ULP's placement commits: initial load,
	// migration acceptance at the destination, or completion (host -1).
	// The scheduler's incremental load index subscribes here.
	placeHooks []func(ulpID, host int)
}

// OnPlacement registers fn to run whenever a ULP's placement changes:
// initial placement, migration acceptance, and completion (host -1).
func (s *System) OnPlacement(fn func(ulpID, host int)) {
	s.placeHooks = append(s.placeHooks, fn)
}

func (s *System) notePlaced(ulpID, host int) {
	for _, fn := range s.placeHooks {
		fn(ulpID, host)
	}
}

// New creates a UPVM system over a PVM machine.
func New(m *pvm.Machine, cfg Config) *System {
	return &System{
		m:     m,
		cfg:   cfg.withDefaults(),
		space: NewAddressSpace(),
		ulps:  make(map[int]*ULP),
	}
}

// Machine returns the underlying PVM machine.
func (s *System) Machine() *pvm.Machine { return s.m }

// Records returns completed ULP migrations.
func (s *System) Records() []core.MigrationRecord { return s.records }

// SetTracer installs a protocol stage tracer (nil to disable).
func (s *System) SetTracer(fn func(actor, stage, detail string)) { s.tracer = fn }

func (s *System) trace(actor, stage, detail string) {
	if s.tracer != nil {
		s.tracer(actor, stage, detail)
	}
}

// Space returns the global address-space layout manager.
func (s *System) Space() *AddressSpace { return s.space }

// ULP returns the ULP with the given id, or nil.
func (s *System) ULP(id int) *ULP { return s.ulps[id] }

// Process returns the UPVM process on the given host, or nil.
func (s *System) Process(host int) *Process {
	if host < 0 || host >= len(s.procs) {
		return nil
	}
	return s.procs[host]
}

// ULPSpec declares one ULP of an SPMD application.
type ULPSpec struct {
	// Host is the initial placement.
	Host int
	// DataBytes + StackBytes sizes the ULP's private segments (its
	// migratable state; the heap is folded into the data segment).
	DataBytes  int
	StackBytes int
}

// StateBytes returns the ULP's total migratable segment size.
func (u ULPSpec) StateBytes() int { return u.DataBytes + u.StackBytes }

// Start launches the SPMD application: one UPVM process on every host of
// the machine, and one ULP per spec running body(ulp, rank). It returns the
// created ULPs in rank order.
func (s *System) Start(name string, specs []ULPSpec, body func(u *ULP, rank int)) ([]*ULP, error) {
	if s.started {
		return nil, errors.New("upvm: already started")
	}
	s.started = true
	for h := 0; h < s.m.NHosts(); h++ {
		p, err := newProcess(s, h, name)
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, p)
	}
	ulps := make([]*ULP, len(specs))
	for rank, spec := range specs {
		if spec.Host < 0 || spec.Host >= len(s.procs) {
			return nil, fmt.Errorf("upvm: ulp %d placed on missing host %d", rank, spec.Host)
		}
		u := newULP(s, rank, spec, body)
		ulps[rank] = u
		s.ulps[rank] = u
		s.procs[spec.Host].addULP(u)
	}
	return ulps, nil
}
