package harness

import (
	"pvmigrate/internal/sim"
)

// arrivals.go generates the open-loop request schedules of the serving
// scenarios: seeded Poisson processes, optionally modulated by a diurnal
// load curve. A schedule is a pure
// function of its spec — the same spec produces the same arrival instants
// whether generated serially or inside an internal/sweep worker — so a
// serving run is as replayable as a batch run.

// ArrivalSpec describes one open-loop arrival process.
type ArrivalSpec struct {
	// Rate is the mean arrival rate in requests per (virtual) second.
	Rate float64
	// Horizon bounds generation: no arrival at or beyond Start+Horizon.
	Horizon sim.Time
	// Start offsets the whole schedule: the first arrival can land no
	// earlier than Start (a daemon submits jobs mid-run, so schedules must
	// begin at the cluster's current virtual time, not zero).
	Start sim.Time
	// Seed drives the Poisson draws.
	Seed uint64
	// Diurnal, when non-empty, modulates Rate over the horizon: the
	// horizon is split into len(Diurnal) equal slices and slice i's
	// instantaneous rate is Rate*Diurnal[i] (a piecewise-constant load
	// curve; a day compressed into the horizon). Multipliers must be
	// non-negative.
	Diurnal []float64
	// MaxN, when > 0, caps the schedule length.
	MaxN int
}

// peakMult returns the largest diurnal multiplier (1 when no curve).
func (a ArrivalSpec) peakMult() float64 {
	if len(a.Diurnal) == 0 {
		return 1
	}
	m := 0.0
	for _, d := range a.Diurnal {
		if d > m {
			m = d
		}
	}
	return m
}

// mult returns the diurnal multiplier in effect at t.
func (a ArrivalSpec) mult(t sim.Time) float64 {
	if len(a.Diurnal) == 0 {
		return 1
	}
	slice := int(float64(t) / float64(a.Horizon) * float64(len(a.Diurnal)))
	if slice >= len(a.Diurnal) {
		slice = len(a.Diurnal) - 1
	}
	return a.Diurnal[slice]
}

// Schedule generates the arrival instants, strictly increasing, all within
// [Start, Start+Horizon). Poisson arrivals use Lewis-Shedler thinning: candidates are
// drawn from a homogeneous process at the peak rate and accepted with
// probability rate(t)/peak, which realizes the piecewise-constant diurnal
// intensity exactly and stays a pure function of the seed.
func (a ArrivalSpec) Schedule() []sim.Time {
	if a.Rate <= 0 || a.Horizon <= 0 {
		return nil
	}
	peak := a.Rate * a.peakMult()
	if peak <= 0 {
		return nil
	}
	rng := sim.NewRNG(a.Seed)
	meanGap := sim.FromSeconds(1 / peak)
	var out []sim.Time
	t := sim.Time(0)
	for {
		t += rng.ExpDuration(meanGap)
		if t >= a.Horizon {
			return out
		}
		if a.MaxN > 0 && len(out) == a.MaxN {
			return out
		}
		accept := a.mult(t) / a.peakMult()
		if rng.Float64() < accept {
			out = append(out, a.Start+t)
		}
	}
}
