package harness

import (
	"fmt"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

// System is the layer a world runs over its cluster.
type System int

const (
	// NoSystem builds the cluster alone: raw TCP probes and work-unit
	// fleets.
	NoSystem System = iota
	// PVM is the bare PVM machine (PVM and ADM runs).
	PVM
	// MPVM adds migratable processes to the machine.
	MPVM
	// UPVM adds user-level processes to the machine.
	UPVM
)

// WorldSpec is one run's substrate: the workstations, the network, the
// system over them and the Global Scheduler. Its fields are what callers
// vary; NewWorld turns them into handles in one order.
type WorldSpec struct {
	// Hosts are the workstations in host-id order (see Workstations).
	Hosts []cluster.HostSpec
	// Wire, when non-nil, carries every cross-host payload over a real
	// transport (internal/netwire); timing stays the cost model's. The
	// caller owns its lifetime.
	Wire netsim.Wire
	// TieBreak, when non-nil, seeds the kernel's same-instant tie-breaker
	// (sim.Kernel.SetTieBreakSeed). nil keeps schedule-order dispatch; seed
	// 0 is a permuted schedule of its own, hence the pointer.
	TieBreak *uint64
	// Direct routes data messages task to task over TCP.
	Direct bool
	// BackgroundLoad adds competing compute jobs per host id.
	BackgroundLoad map[int]int
	// CrossTraffic, in (0,1), loads the Ethernet at that fraction of its
	// capacity. It is perpetual: the run must stop the kernel itself.
	CrossTraffic float64
	// System is the layer over the cluster.
	System System
	// UPVM overrides the UPVM cost model; nil keeps its defaults.
	UPVM *upvm.Config
	// Warm makes every MPVM migration, the GS's included, use iterative
	// precopy instead of stop-and-copy.
	Warm bool
	// Trace records the system's protocol stages into World.Log.
	Trace bool
	// FT, when non-nil, assembles the fault-tolerance layer over the MPVM
	// system (ft.NewStack). Its GS runs Fleet's policy, or the zero policy
	// when Fleet is nil.
	FT *ft.Config
	// Fleet, when non-nil, builds the GS over the target the world
	// derives: ft.Manager in FT runs, a gs.VPTarget over MPVM, a
	// gs.CountTarget over no system.
	Fleet *gs.FleetPolicy
}

// World is one run's assembled substrate. Fields a spec does not ask for
// stay nil.
type World struct {
	K       *sim.Kernel
	Cluster *cluster.Cluster
	Machine *pvm.Machine
	MPVM    *mpvm.System
	UPVM    *upvm.System
	// Log holds the protocol trace (Spec.Trace) and the FT layer's
	// timeline.
	Log *trace.Log
	// Fleet is the GS, built unstarted: a daemon starts it before any job
	// exists, a batch run after it spawns its job.
	Fleet *gs.Fleet
	// Counts is the fleet's target over no system, VPs its target over
	// MPVM; in FT runs the target is Mgr.
	Counts *gs.CountTarget
	VPs    *gs.VPTarget[core.TID]
	// Mgr and Inj are the FT layer's recovery manager and fault injector.
	Mgr *ft.Manager
	Inj *ft.Injector
}

// Workstations returns n calibrated default hosts, host i named by the
// one-verb format name applied to first+i: ("host%d", 1) is the paper
// testbed's host1, host2, …; ("h%d", 0) the daemon's and the chaos
// explorer's h0, h1, …. A format, not a prefix, so that naming a
// thousand-host fleet boxes no string per host.
func Workstations(n int, name string, first int) []cluster.HostSpec {
	specs := make([]cluster.HostSpec, n)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec(fmt.Sprintf(name, first+i))
	}
	return specs
}

// NewWorld builds the spec's world. Construction order is kernel event
// order, so it is one order for every run: kernel, tie-breaker, cluster,
// background load and cross traffic (a proc, spawned before the machine's
// daemons), machine, system, tracer, then the FT stack or the target and
// its fleet. The caller closes the world.
func NewWorld(spec WorldSpec) *World {
	w := &World{K: sim.NewKernel()}
	if spec.TieBreak != nil {
		w.K.SetTieBreakSeed(*spec.TieBreak)
	}
	w.Cluster = cluster.New(w.K, netsim.Params{Wire: spec.Wire}, spec.Hosts...)
	for host, n := range spec.BackgroundLoad {
		if h := w.Cluster.Host(netsim.HostID(host)); h != nil {
			cluster.NewBackgroundLoad(h).Set(n)
		}
	}
	if spec.CrossTraffic > 0 {
		netsim.StartCrossTraffic(w.Cluster.Network(), 4242, spec.CrossTraffic)
	}
	if spec.System != NoSystem {
		w.Machine = pvm.NewMachine(w.Cluster, pvm.Config{DirectRoute: spec.Direct})
	}
	if spec.Trace || spec.FT != nil {
		w.Log = &trace.Log{}
	}
	switch spec.System {
	case MPVM:
		w.MPVM = mpvm.New(w.Machine, mpvm.Config{})
		w.MPVM.SetWarmByDefault(spec.Warm)
		if spec.Trace {
			w.MPVM.SetTracer(w.record)
		}
	case UPVM:
		cfg := upvm.Config{}
		if spec.UPVM != nil {
			cfg = *spec.UPVM
		}
		w.UPVM = upvm.New(w.Machine, cfg)
		if spec.Trace {
			w.UPVM.SetTracer(w.record)
		}
	}
	var pol gs.FleetPolicy
	if spec.Fleet != nil {
		pol = *spec.Fleet
	}
	switch {
	case spec.FT != nil:
		st := ft.NewStack(w.MPVM, *spec.FT, pol, w.Log)
		w.Mgr, w.Inj, w.Fleet = st.Mgr, st.Inj, st.Sched
	case spec.Fleet == nil:
	case spec.System == NoSystem:
		w.Counts = gs.NewCountTarget(w.Cluster)
		w.Fleet = gs.NewFleet(w.Cluster, w.Counts, pol)
	case spec.System == MPVM:
		w.VPs = gs.NewVPTarget(w.MPVM)
		w.Fleet = gs.NewFleet(w.Cluster, w.VPs, pol)
	default:
		panic(fmt.Sprintf("harness: no fleet target over system %d", spec.System))
	}
	return w
}

// record is the systems' tracer: one stage at the current virtual time.
func (w *World) record(actor, stage, detail string) {
	w.Log.Record(w.K.Now(), actor, stage, detail)
}

// Close ends the world: the kernel unwinds every proc still parked and
// returns its worker to the pool. The handles stay readable. Calling it
// again does nothing.
func (w *World) Close() { w.K.Close() }
