package harness

import (
	"pvmigrate/internal/adm"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

// traceHook adapts a trace.Log to the migration systems' tracer interface.
func traceHook(k *sim.Kernel, log *trace.Log) func(actor, stage, detail string) {
	return func(actor, stage, detail string) {
		log.Record(k.Now(), actor, stage, detail)
	}
}

// TraceMPVMMigration runs an MPVM scenario with protocol tracing enabled
// and returns the stage timeline — the reproduction of the paper's
// Figure 1.
func TraceMPVMMigration(sc Scenario) (*trace.Log, *Outcome) {
	log := &trace.Log{}
	out := runMPVM(sc, func(k *sim.Kernel, sys *mpvm.System) {
		sys.SetTracer(traceHook(k, log))
	}, nil)
	return log, out
}

// TraceUPVMMigration runs a UPVM scenario with protocol tracing enabled —
// the reproduction of the paper's Figure 3.
func TraceUPVMMigration(sc Scenario) (*trace.Log, *Outcome) {
	log := &trace.Log{}
	out := runUPVM(sc, func(k *sim.Kernel, sys *upvm.System) {
		sys.SetTracer(traceHook(k, log))
	})
	return log, out
}

// Figure2Layout builds the SPMD_opt ULP address-space layout — the
// reproduction of the paper's Figure 2 (globally unique ULP regions).
func Figure2Layout(sc Scenario) (string, error) {
	r, err := newRig(sc)
	if err != nil {
		return "", err
	}
	defer r.k.Close()
	sys := r.newUPVM()
	if _, err := sys.Start("opt", r.sc.ulpSpecs(), func(u *upvm.ULP, rank int) {}); err != nil {
		return "", err
	}
	r.k.RunUntil(sim.FromSeconds(1))
	if err := sys.Space().Validate(); err != nil {
		return "", err
	}
	return sys.Space().Layout(), nil
}

// Figure4FSM returns the ADMopt state machine's transition table — the
// reproduction of the paper's Figure 4.
func Figure4FSM() string {
	f := adm.NewFSM("compute")
	f.On("compute", "net-received", "compute").
		On("compute", "migration-event", "redistribute").
		On("compute", "enter-redist", "redistribute").
		On("compute", "iteration-done", "reduce").
		On("compute", "done", "finished").
		On("reduce", "net-received", "compute").
		On("reduce", "enter-redist", "redistribute").
		On("reduce", "done", "finished").
		On("redistribute", "redistributed", "compute").
		On("redistribute", "withdrawn", "inactive").
		On("inactive", "done", "finished")
	return f.Table()
}
