package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// A Compute that is the only finite job on its CPU reserves its
// completion's place and, when the completion is provably the next event,
// runs it on the proc's own stack (sim.Cond.WaitSlot). Each case runs
// twice: the forced run plants a canceled timer 1 ns after the job starts,
// so the completion must go through the queue, and the control run plants
// the same timer an hour later, so both runs draw the same seq and
// tie-break priority. Their step logs must be identical, without a
// tie-break seed (seed -1) and under seeds 0-7.

const soleSpeed = 1e6

type soleCase struct {
	name string
	// work is the job's size; 0 means one second's worth.
	work float64
	// load adds a background load job before the proc starts.
	load bool
	// deadline, when non-zero, ends the first run segment (RunUntil).
	deadline sim.Time
	// start runs at the job's admission and complete at its completion,
	// as run-queue watchers; side is a callback the run schedules at
	// side.at.
	start, complete func(w *soleWorld)
	side            *soleSide
}

type soleSide struct {
	at time.Duration
	fn func(w *soleWorld)
}

type soleWorld struct {
	k     *sim.Kernel
	cpu   *CPU
	p     *sim.Proc
	log   strings.Builder
	jobs  int // Compute calls made by p so far
	admit bool
}

func (w *soleWorld) logf(actor, format string, args ...any) {
	fmt.Fprintf(&w.log, "%d %s %s\n", w.k.Now(), actor, fmt.Sprintf(format, args...))
}

func (w *soleWorld) compute(p *sim.Proc, name string, work float64) {
	rem, err := w.cpu.Compute(p, work)
	w.logf(name, "computed rem %v err %v", rem, err)
}

var soleCases = []soleCase{
	{name: "sole job"},
	{name: "sole job beside load", load: true},
	{name: "a start watcher queues at the completion",
		start: func(w *soleWorld) {
			w.k.ScheduleAt(w.k.Now()+time.Second, func() { w.logf("watcher", "fire") })
		}},
	{name: "a start watcher adds load",
		start: func(w *soleWorld) { w.cpu.AddLoad() }},
	{name: "a completion watcher queues at the completion",
		complete: func(w *soleWorld) { w.k.Schedule(0, func() { w.logf("watcher", "fire") }) }},
	{name: "a completion watcher stops the kernel",
		complete: func(w *soleWorld) { w.k.Stop() }},
	{name: "the deadline is before the completion", deadline: 500 * time.Millisecond},
	{name: "the deadline is the completion", deadline: time.Second},
	{name: "a masked interrupt is pending",
		start: func(w *soleWorld) { w.p.MaskInterrupts(); w.p.Interrupt("masked") }},
	{name: "an interrupt is pending",
		start: func(w *soleWorld) { w.p.Interrupt("pending") }},
	{name: "a masked interrupt is raised at completion",
		start:    func(w *soleWorld) { w.p.MaskInterrupts() },
		complete: func(w *soleWorld) { w.p.Interrupt("masked") }},
	{name: "an interrupt is raised at completion",
		complete: func(w *soleWorld) { w.p.Interrupt("raised") }},
	{name: "two finite jobs admitted together",
		side: &soleSide{at: 0, fn: func(w *soleWorld) {
			w.k.Spawn("q", func(q *sim.Proc) { w.compute(q, "q", soleSpeed/2) })
		}}},
	{name: "a second finite job admitted mid-way",
		side: &soleSide{at: 300 * time.Millisecond, fn: func(w *soleWorld) {
			w.k.Spawn("q", func(q *sim.Proc) { w.compute(q, "q", soleSpeed/2) })
		}}},
	// 8,691,357.312 units at 1e6/s: the credit at the rounded-up ETA falls
	// 1.9e-9 short, so the completion re-arms itself 1 ns later.
	{name: "the completion leaves a float residue", work: 8.691357312e6},
}

// A negative seed installs no tie-breaker.
func runSoleCase(c soleCase, plant sim.Time, seed int) string {
	k := sim.NewKernel()
	defer k.Close()
	if seed >= 0 {
		k.SetTieBreakSeed(uint64(seed))
	}
	cl := New(k, netsim.Params{}, DefaultHostSpec("h0"))
	h := cl.Hosts()[0]
	w := &soleWorld{k: k, cpu: NewCPU(k, soleSpeed)}
	w.cpu.host = h
	if c.load {
		w.cpu.AddLoad()
	}
	cl.Watch(func(_ *Host, ch Change) {
		w.logf("watch", "change %d jobs %d running %v", ch, w.cpu.ActiveJobs(), k.Running() != nil)
		if k.Running() == w.p && w.jobs == 1 && !w.admit {
			w.admit = true
			if c.start != nil {
				c.start(w)
			}
		} else if k.Running() == nil && w.jobs == 1 && c.complete != nil {
			c.complete(w)
		}
	})
	work := c.work
	if work == 0 {
		work = soleSpeed
	}
	if c.side != nil {
		k.Schedule(c.side.at, func() { c.side.fn(w) })
	}
	k.Schedule(time.Hour/2, func() { w.logf("tick", "fire") })
	w.p = k.Spawn("p", func(p *sim.Proc) {
		k.ScheduleAt(k.Now()+plant, func() { w.logf("planted", "fire") }).Cancel()
		w.jobs++
		w.compute(p, "p", work)
		w.jobs++
		p.UnmaskInterrupts()
		w.compute(p, "p", work/4)
		w.logf("p", "sleep err %v", p.Sleep(time.Millisecond))
		w.compute(p, "p", work/8)
	})
	run := func(deadline sim.Time) (r any) {
		defer func() { r = recover() }()
		if deadline > 0 {
			w.logf("top", "run until %v -> %d", deadline, k.RunUntil(deadline))
		} else {
			w.logf("top", "run -> %d", k.Run())
		}
		return nil
	}
	for i, d := range []sim.Time{c.deadline, 0, 0} {
		if i > 0 || d > 0 {
			if r := run(d); r != nil {
				w.logf("top", "panic %v", r)
			}
		}
	}
	w.logf("top", "end events %d switches %d work %#x blocked %v", k.EventsScheduled(), k.ProcSwitches(),
		math.Float64bits(w.cpu.totalDone), k.Blocked())
	return w.log.String()
}

// goldenSoleCompute is the FNV-1a digest of every case's queue-path log,
// seeds in order, as a CPU that always queued its completion wrote them: a
// change that moved both paths alike would still fail here.
const goldenSoleCompute = 0xcccab97c4d1edf59

func TestSoleComputeMatchesQueuePath(t *testing.T) {
	h := fnv.New64a()
	for _, c := range soleCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := -1; seed < 8; seed++ {
				forced := runSoleCase(c, 1, seed)
				control := runSoleCase(c, time.Hour, seed)
				io.WriteString(h, forced)
				if forced != control {
					t.Fatalf("seed %d: step logs differ\nqueue path:\n%s\nin place:\n%s", seed, forced, control)
				}
			}
		})
	}
	if got := h.Sum64(); got != goldenSoleCompute {
		t.Errorf("queue-path log digest = %#x, want %#x", got, uint64(goldenSoleCompute))
	}
}

// TestComputeResidueRearms holds the residue case to what it claims: the
// job finishes 1 ns after its rounded-up ETA, on both paths.
func TestComputeResidueRearms(t *testing.T) {
	const work = 8.691357312e6
	for _, plant := range []sim.Time{1, time.Hour} {
		k := sim.NewKernel()
		cpu := NewCPU(k, soleSpeed)
		var done sim.Time
		k.Spawn("p", func(p *sim.Proc) {
			k.ScheduleAt(plant, func() {}).Cancel()
			cpu.Compute(p, work)
			done = p.Now()
		})
		k.Run()
		if eta := sim.Time(math.Ceil(work / soleSpeed * 1e9)); done != eta+1 {
			t.Fatalf("plant %v: job done at %v, want its ETA %v plus 1 ns", plant, done, eta)
		}
		k.Close()
	}
}

// TestComputeSoleZeroAlloc: a warm sole job, whose completion the proc runs
// in place, allocates nothing.
func TestComputeSoleZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cpu := NewCPU(k, soleSpeed)
	k.Spawn("job", func(p *sim.Proc) {
		for {
			cpu.Compute(p, 1e3)
		}
	})
	k.RunUntil(time.Second)
	before := cpu.totalDone
	allocs := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + time.Second) })
	if allocs != 0 {
		t.Fatalf("a sole job allocates %v per simulated second, want 0", allocs)
	}
	if cpu.totalDone <= before {
		t.Fatal("no work was done inside the measured window")
	}
}

// BenchmarkCPUComputeSole is one Compute per op by the only job on its CPU:
// the completion is always the next event, so the proc runs it in place
// and neither it nor the wake goes through the queue. It must run at
// 0 allocs/op.
func BenchmarkCPUComputeSole(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	cpu := NewCPU(k, soleSpeed)
	k.Spawn("job", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			cpu.Compute(p, 1e3)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
