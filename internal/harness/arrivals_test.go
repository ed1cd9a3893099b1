package harness

import (
	"reflect"
	"testing"
	"time"

	"pvmigrate/internal/sim"
	"pvmigrate/internal/sweep"
)

func TestArrivalScheduleIsDeterministic(t *testing.T) {
	spec := ArrivalSpec{Rate: 50, Horizon: 10 * time.Second, Seed: 7}
	a := spec.Schedule()
	b := spec.Schedule()
	if len(a) == 0 {
		t.Fatal("50 req/s over 10 s should produce arrivals")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different schedules")
	}
	spec.Seed = 8
	if reflect.DeepEqual(a, spec.Schedule()) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i, at := range a {
		if at < 0 || at >= spec.Horizon {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, at, spec.Horizon)
		}
		if i > 0 && at < a[i-1] {
			t.Fatalf("arrivals out of order at %d: %v < %v", i, at, a[i-1])
		}
	}
}

// TestArrivalScheduleSerialVsParallel pins the sweep contract for the
// serving scenarios: generating one schedule per seed through the
// internal/sweep worker pool yields bit-identical schedules to the serial
// path, because a schedule is a pure function of its spec.
func TestArrivalScheduleSerialVsParallel(t *testing.T) {
	const n = 16
	spec := func(i int) ArrivalSpec {
		return ArrivalSpec{
			Rate:    80,
			Horizon: 5 * time.Second,
			Seed:    uint64(i + 1),
			Diurnal: []float64{0.2, 1.0, 2.0, 0.5},
		}
	}
	serial := sweep.Map(n, 1, func(i int) []sim.Time { return spec(i).Schedule() })
	parallel := sweep.Map(n, 4, func(i int) []sim.Time { return spec(i).Schedule() })
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("seed %d: parallel schedule diverged from serial", i+1)
		}
	}
}

func TestArrivalDiurnalCurve(t *testing.T) {
	// A dead slice gets no arrivals; a busy slice gets proportionally more.
	spec := ArrivalSpec{
		Rate:    200,
		Horizon: 10 * time.Second,
		Seed:    3,
		Diurnal: []float64{0, 2},
	}
	sched := spec.Schedule()
	if len(sched) == 0 {
		t.Fatal("busy half should produce arrivals")
	}
	half := spec.Horizon / 2
	for _, at := range sched {
		if at < half {
			t.Fatalf("arrival at %v inside the zero-rate slice", at)
		}
	}
	// The busy half runs at 400/s for 5 s: expect ~2000, allow wide slack.
	if n := len(sched); n < 1500 || n > 2500 {
		t.Fatalf("busy-slice arrival count %d far from expected ~2000", n)
	}
}

func TestArrivalMaxN(t *testing.T) {
	spec := ArrivalSpec{Rate: 100, Horizon: 10 * time.Second, Seed: 1, MaxN: 7}
	if n := len(spec.Schedule()); n != 7 {
		t.Fatalf("MaxN=7 produced %d arrivals", n)
	}
}
