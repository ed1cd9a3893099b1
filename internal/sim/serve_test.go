package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Queue.Serve must be, event for event and draw for draw, the proc that
// loops Get → fn until the queue is closed and empty; and a callback that
// reschedules itself must be the proc that loops on Sleep. Each case runs
// one script against both consumers, without a tie-break seed (seed -1)
// and under seeds 0-7, among bystanders that tie with the consumer's
// events: a callback ticker, a proc that sleeps in steps (and so walks
// callbacks in place), and a proc waiting on a Cond that the handler
// broadcasts, as a pump's delivery wakes its task. The step logs and
// EventsScheduled must be identical.

type serveWorld struct {
	k      *Kernel
	q      *Queue[string]
	byProc bool
	reader Cond
	log    strings.Builder
}

func (w *serveWorld) logf(actor, format string, args ...any) {
	fmt.Fprintf(&w.log, "%d %s %s\n", w.k.Now(), actor, fmt.Sprintf(format, args...))
}

// start starts the consumer: a proc looping on Get, or Serve.
func (w *serveWorld) start() {
	if !w.byProc {
		w.q.Serve(w.handle)
		return
	}
	w.k.Spawn("consumer", func(p *Proc) {
		for {
			v, err := w.q.Get(p)
			if err != nil {
				return
			}
			w.handle(v)
		}
	})
}

func (w *serveWorld) handle(v string) {
	w.logf("handler", "%s (%d queued)", v, w.q.Len())
	w.reader.Broadcast()
	if v == "echo" {
		w.q.TryPut("echoed")
	}
}

// at schedules a script step at t ms.
func (w *serveWorld) at(t int, step func()) {
	w.k.ScheduleAt(Time(t)*time.Millisecond, step)
}

func (w *serveWorld) put(vs ...string) {
	for _, v := range vs {
		w.logf("put", "%s ok %v", v, w.q.TryPut(v))
	}
}

func (w *serveWorld) close() {
	w.logf("close", "")
	w.q.Close()
}

type serveCase struct {
	name   string
	script func(w *serveWorld)
	// stopAt, when non-zero, stops the run at that many ms; the kernel is
	// then closed with whatever is still queued.
	stopAt int
}

var serveCases = []serveCase{
	{name: "puts before the start event", script: func(w *serveWorld) {
		w.put("early")
		w.start()
		w.put("a", "b")
		w.at(1, func() { w.put("c") })
	}},
	{name: "puts while a drain is pending", script: func(w *serveWorld) {
		w.start()
		w.at(1, func() { w.put("a", "b") })
		w.at(1, func() { w.put("c") })
		w.k.SpawnAt(time.Millisecond, "producer", func(p *Proc) {
			w.put("p1")
			p.Yield()
			w.put("p2", "p3")
		})
	}},
	{name: "a put from inside the handler", script: func(w *serveWorld) {
		w.start()
		w.at(1, func() { w.put("echo") })
		w.at(2, func() { w.put("x", "echo") })
	}},
	{name: "close while idle", script: func(w *serveWorld) {
		w.start()
		w.at(1, func() { w.put("a") })
		w.at(3, func() { w.close(); w.put("late") })
	}},
	{name: "close with items queued", script: func(w *serveWorld) {
		w.put("a")
		w.start()
		w.put("b")
		w.close()
		w.put("late")
	}},
	{name: "close with a drain pending", script: func(w *serveWorld) {
		w.start()
		w.at(1, func() { w.put("a", "b"); w.close() })
	}},
	{name: "close from inside the handler", script: func(w *serveWorld) {
		w.start()
		w.at(1, func() { w.put("a", "b") })
		w.at(1, func() { w.close() })
	}},
	{name: "Kernel.Close with a drain pending", stopAt: 1, script: func(w *serveWorld) {
		w.start()
		w.at(1, func() { w.put("a"); w.k.Stop() })
	}},
}

// runServeCase runs one script with the chosen consumer and returns its step
// log, with EventsScheduled as the last line. A negative seed installs no
// tie-breaker.
func runServeCase(c serveCase, byProc bool, seed int) string {
	w := &serveWorld{k: NewKernel(), byProc: byProc}
	k := w.k
	defer k.Close()
	if seed >= 0 {
		k.SetTieBreakSeed(uint64(seed))
	}
	w.q = NewQueue[string](k)
	w.reader.Init(k)
	var tick func()
	tick = func() {
		w.logf("tick", "")
		if k.Now() < 4*time.Millisecond {
			k.Schedule(time.Millisecond, tick)
		}
	}
	k.Schedule(0, tick)
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 8; i++ {
			w.logf("sleeper", "err %v", p.Sleep(time.Millisecond/2))
		}
	})
	k.Spawn("reader", func(p *Proc) {
		for i := 0; i < 6; i++ {
			w.logf("reader", "err %v", w.reader.Wait(p))
		}
	})
	c.script(w)
	if c.stopAt > 0 {
		k.RunUntil(Time(c.stopAt) * time.Millisecond)
	} else {
		k.Run()
	}
	w.logf("end", "events %d queued %d", k.EventsScheduled(), w.q.Len())
	return w.log.String()
}

func TestServeMatchesProcConsumer(t *testing.T) {
	for _, c := range serveCases {
		for seed := -1; seed < 8; seed++ {
			want := runServeCase(c, true, seed)
			if got := runServeCase(c, false, seed); got != want {
				t.Errorf("%s, seed %d: Serve's log\n%s\nthe proc consumer's\n%s", c.name, seed, got, want)
			}
		}
	}
}

// TestScheduleChainMatchesSleepLoop: the heartbeat and cross-traffic shape.
// A zero-delay start event where Spawn was, then one Schedule wherever the
// proc slept, is the proc's event stream; a zero gap is the proc's Yield.
func TestScheduleChainMatchesSleepLoop(t *testing.T) {
	gaps := []Time{time.Millisecond, 0, time.Millisecond / 2, time.Millisecond, 0, 2 * time.Millisecond}
	run := func(byProc bool, seed int) string {
		w := &serveWorld{k: NewKernel()}
		k := w.k
		defer k.Close()
		if seed >= 0 {
			k.SetTieBreakSeed(uint64(seed))
		}
		var tick func()
		tick = func() {
			w.logf("tick", "")
			k.Schedule(time.Millisecond/2, tick)
		}
		k.Schedule(0, tick)
		k.Spawn("sleeper", func(p *Proc) {
			for p.Sleep(time.Millisecond) == nil {
				w.logf("sleeper", "")
			}
		})
		i := 0
		beat := func() Time {
			w.logf("beat", "%d", i)
			i++
			return gaps[i%len(gaps)]
		}
		if byProc {
			k.Spawn("beater", func(p *Proc) {
				for p.Sleep(gaps[0]) == nil {
					if err := p.Sleep(beat()); err != nil {
						return
					}
				}
			})
		} else {
			var first, next func()
			first = func() { k.Schedule(gaps[0], next) }
			next = func() { k.Schedule(beat(), first) }
			k.Schedule(0, first)
		}
		k.RunUntil(12 * time.Millisecond)
		w.logf("end", "events %d", k.EventsScheduled())
		return w.log.String()
	}
	for seed := -1; seed < 8; seed++ {
		if got, want := run(false, seed), run(true, seed); got != want {
			t.Errorf("seed %d: the chain's log\n%s\nthe sleep loop's\n%s", seed, got, want)
		}
	}
}

// TestQueueServeZeroAlloc: a steady-state put → drain → re-arm allocates
// nothing: the drain func is built once by Serve, its event takes a
// recycled cancel cell, and the Cond keeps its waiter storage.
func TestQueueServeZeroAlloc(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	sum := 0
	q.Serve(func(v int) { sum += v })
	k.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		q.TryPut(1)
		k.Run()
	}); allocs != 0 {
		t.Fatalf("a put and its drain allocated %v times, want 0", allocs)
	}
	if sum != 101 {
		t.Fatalf("handled %d items, want 101", sum)
	}
}
