package harness

import (
	"pvmigrate/internal/sim"
	"pvmigrate/internal/trace"
	"pvmigrate/internal/upvm"
)

// TraceMPVMMigration runs an MPVM scenario with protocol tracing enabled
// and returns the stage timeline — the reproduction of the paper's
// Figure 1.
func TraceMPVMMigration(sc Scenario) (*trace.Log, *Outcome) {
	out, log := runMPVM(sc, true, nil)
	return log, out
}

// TraceUPVMMigration runs a UPVM scenario with protocol tracing enabled —
// the reproduction of the paper's Figure 3.
func TraceUPVMMigration(sc Scenario) (*trace.Log, *Outcome) {
	out, log := runUPVM(sc, true)
	return log, out
}

// Figure2Layout builds the SPMD_opt ULP address-space layout — the
// reproduction of the paper's Figure 2 (globally unique ULP regions).
func Figure2Layout(sc Scenario) (string, error) {
	r, err := newRig(sc, WorldSpec{System: UPVM})
	if err != nil {
		return "", err
	}
	defer r.Close()
	if _, err := r.UPVM.Start("opt", r.sc.ulpSpecs(), func(u *upvm.ULP, rank int) {}); err != nil {
		return "", err
	}
	r.K.RunUntil(sim.FromSeconds(1))
	if err := r.UPVM.Space().Validate(); err != nil {
		return "", err
	}
	return r.UPVM.Space().Layout(), nil
}
