package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times an untraced run sets up; setup_s is their
// median, so one slow set-up (the first, with cold caches and a small heap,
// or a preempted one) does not decide the metric.
const setupReps = 5

// minOps keeps a run on a very slow machine long enough to have a median.
const minOps = 4

// window is the measurement of one stretch of ops.
type window struct {
	calibMs []float64 // calibrated op durations, successful ops only
	rawMs   []float64 // wall op durations of the same ops
	kMs     []float64 // every calibration kernel reading
	last    opResult  // of the last successful op

	attempted, failed int
	firstErr          error

	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cpu                 time.Duration
}

// runner executes ops of one workload and holds every op to the first op's
// fingerprint.
type runner struct {
	def   *workloadDef
	seed  uint64
	w     workload
	first *opResult
}

// checked runs one op and turns a fingerprint drift into a failure.
func (r *runner) checked(tr *tracer) (opResult, error) {
	res, err := r.w.op(tr)
	if err != nil {
		return res, err
	}
	if r.first == nil {
		r.first = &res
	} else if res.fingerprint != r.first.fingerprint || res.simCost != r.first.simCost {
		return res, fmt.Errorf("op outcome drifted: fingerprint %016x cost %v, first op %016x cost %v",
			res.fingerprint, res.simCost, r.first.fingerprint, r.first.simCost)
	}
	return res, nil
}

// setup builds the fixture, runs the fixed warm-up and collects garbage,
// and returns the calibrated and wall seconds it took. Each segment is
// bracketed by the calibration kernel.
func (r *runner) setup(win *window) (calibS, rawS float64) {
	k := calibrate()
	segment := func(fn func()) {
		start := time.Now()
		fn()
		wall := time.Since(start)
		kAfter := calibrate()
		calibS += calibrated(wall, k, kAfter).Seconds()
		rawS += wall.Seconds()
		k = kAfter
	}
	segment(func() {
		w, err := r.def.build(r.seed)
		if err != nil {
			win.fail(fmt.Errorf("build fixture: %w", err))
			return
		}
		r.w = w
	})
	if r.w == nil {
		return calibS, rawS
	}
	for i := 0; i < r.def.warmup; i++ {
		segment(func() {
			win.attempted++
			if _, err := r.checked(nil); err != nil {
				win.fail(err)
			}
		})
	}
	segment(runtime.GC)
	return calibS, rawS
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// measure runs ops back to back (closed loop, one client) until d has
// passed, timing each between two calibration kernel runs. tr is nil for
// the untraced pass.
func (r *runner) measure(d time.Duration, tr *tracer) *window {
	win := &window{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	deadline := time.Now().Add(d)
	k := calibrate()
	win.kMs = append(win.kMs, ms(k))
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		tr.beginOp(r.def.root)
		start := time.Now()
		res, err := r.checked(tr)
		wall := time.Since(start)
		kAfter := calibrate()
		tr.endOp(calibFactor(k, kAfter))
		win.kMs = append(win.kMs, ms(kAfter))
		win.attempted++
		if err != nil {
			win.fail(err)
		} else {
			win.calibMs = append(win.calibMs, ms(calibrated(wall, k, kAfter)))
			win.rawMs = append(win.rawMs, ms(wall))
			win.last = res
		}
		k = kAfter
	}
	win.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	win.allocBytes = after.TotalAlloc - before.TotalAlloc
	win.gcCycles = after.NumGC - before.NumGC
	win.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return win
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report is what one invocation prints.
type report struct {
	workload          string
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	diag              map[string]float64 // raw wall-clock twins, untraced run only
	notes             []string
}

func (rep *report) notef(format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

// endToEnd is the untraced run: setupReps set-ups, then one timed window of
// `seconds`, reporting the seven end-to-end metrics.
func endToEnd(def *workloadDef, seed uint64, seconds time.Duration) *report {
	r := &runner{def: def, seed: seed}
	rep := &report{workload: def.name, metrics: map[string]float64{}}
	setupWin := &window{}
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		c, raw := r.setup(setupWin)
		setups = append(setups, c)
		rawSetups = append(rawSetups, raw)
	}
	rep.absorb(setupWin)
	if r.w == nil {
		return rep
	}
	win := r.measure(seconds, nil)
	rep.absorb(win)
	n := float64(len(win.calibMs))
	if n == 0 {
		return rep
	}
	m := rep.metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = n / (sum(win.calibMs) / 1000)
	m["op_ms_p50"] = percentile(win.calibMs, 50)
	m["op_ms_p90"] = percentile(win.calibMs, 90)
	m["allocs_per_op"] = float64(win.mallocs) / float64(win.attempted)
	m["alloc_kb_per_op"] = float64(win.allocBytes) / 1024 / float64(win.attempted)
	m["sim_cost"] = win.last.simCost
	rep.notef("ops timed %d (%d beyond p90; highest percentile with 10 beyond: p%g), set-ups %d x %d warm-up ops",
		len(win.calibMs), len(win.calibMs)-rankOf(len(win.calibMs), 90), highestPercentile(len(win.calibMs)), setupReps, def.warmup)
	rep.notef("diagnostics only: op_ms p99 %.3f max %.3f | calibration kernel p50 %.4f ms p90 %.4f ms",
		percentile(win.calibMs, 99), percentile(win.calibMs, 100), percentile(win.kMs, 50), percentile(win.kMs, 90))
	rep.diag = map[string]float64{
		"raw_op_ms_p50": percentile(win.rawMs, 50),
		"raw_op_ms_p90": percentile(win.rawMs, 90),
		"raw_setup_s":   median(rawSetups),
	}
	return rep
}

func (rep *report) absorb(win *window) {
	rep.attempted += win.attempted
	rep.failed += win.failed
	if rep.firstErr == nil {
		rep.firstErr = win.firstErr
	}
}

// traced is the per-layer run: one set-up, a quarter of `seconds` untraced
// as the reference, the rest traced. It writes the span file and reports
// every per-layer metric (zero for layers this workload does not reach).
func traced(def *workloadDef, seed uint64, seconds time.Duration, outDir string) *report {
	r := &runner{def: def, seed: seed}
	rep := &report{workload: def.name, metrics: map[string]float64{}}
	for _, md := range perLayer {
		rep.metrics[md.name] = 0
	}
	setupWin := &window{}
	_, rawSetup := r.setup(setupWin)
	rep.absorb(setupWin)
	if r.w == nil {
		return rep
	}
	ref := r.measure(seconds/4, nil)
	rep.absorb(ref)
	tr := newTracer()
	win := r.measure(seconds-seconds/4, tr)
	rep.absorb(win)
	if len(ref.calibMs) == 0 || len(win.calibMs) == 0 {
		return rep
	}

	m := rep.metrics
	r.w.layers(tr, win.last, m)
	tracedP50 := percentile(tr.opNet(def.root, def.extras), 50) / 1e6
	refP50 := percentile(ref.calibMs, 50)
	if ev := m["sim.events_per_op"]; ev > 0 {
		floor := kernelFloorNs(int(ev))
		m["sim.kernel_floor_ns_per_event"] = floor
		m["sim.host_ns_per_event"] = refP50 * 1e6 / ev
		m["sim.kernel_share_pct"] = 100 * floor / m["sim.host_ns_per_event"]
	}
	kAll := append(append([]float64(nil), ref.kMs...), win.kMs...)
	refOps := float64(ref.attempted)
	m["bench.calib_ms_p50"] = percentile(kAll, 50)
	m["bench.calib_ms_p90"] = percentile(kAll, 90)
	m["bench.raw_op_ms_p50"] = percentile(ref.rawMs, 50)
	m["bench.raw_setup_s"] = rawSetup
	m["bench.cpu_ms_per_op"] = ms(ref.cpu) / refOps
	m["bench.gc_cycles_per_op"] = float64(ref.gcCycles) / refOps
	m["bench.gc_pause_ms_per_op"] = float64(ref.gcPauseNs) / 1e6 / refOps
	m["bench.op_ms_max"] = percentile(ref.calibMs, 100)
	m["bench.trace_overhead_pct"] = 100 * (tracedP50 - refP50) / refP50

	share, negative := tr.selfCoverage(def.root)
	rep.notef("traced ops %d, untraced reference ops %d; layer self times sum to %.1f%% of traced op time (%d spans busier than their parent)",
		len(win.calibMs), len(ref.calibMs), 100*share, negative)
	path, err := tr.write(outDir, def.name, seed)
	if err != nil {
		rep.failed++
		if rep.firstErr == nil {
			rep.firstErr = err
		}
		return rep
	}
	rep.notef("spans: %d in %s", len(tr.spans), path)
	return rep
}
