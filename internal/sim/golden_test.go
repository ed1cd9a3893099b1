package sim

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
	"time"
)

// goldenDispatchOrder is the FNV-1a digest of dispatchMix's step log over
// seeds 0–63, each run once without and once with a tie-break seed.
const goldenDispatchOrder = 0x7b15a640754897fb

// TestGoldenDispatchOrder pins the order in which the kernel runs procs and
// callbacks, step by step, over seeded random mixes of every way a proc
// blocks and wakes: Sleep, SleepUntil, Yield, Cond and Queue waits (woken
// by procs and by callbacks), masked and unmasked interrupts, canceled
// timers, Spawn from callbacks, Stop and RunUntil deadlines. Every line of
// the log is (virtual time, actor, action); a kernel change that claims to
// keep dispatch order must leave the digest alone.
func TestGoldenDispatchOrder(t *testing.T) {
	h := fnv.New64a()
	for seed := uint64(0); seed < 64; seed++ {
		dispatchMix(h, seed, false)
		dispatchMix(h, seed, true)
	}
	if got := h.Sum64(); got != goldenDispatchOrder {
		t.Errorf("dispatch-order digest = %#x, want %#x", got, uint64(goldenDispatchOrder))
	}
}

// dispatchMix runs one seeded mix and writes its step log to w.
func dispatchMix(w io.Writer, seed uint64, tieBreak bool) {
	k := NewKernel()
	defer k.Close()
	if tieBreak {
		k.SetTieBreakSeed(seed)
	}
	r := NewRNG(seed)
	logf := func(actor, format string, args ...any) {
		fmt.Fprintf(w, "%d %s %s\n", k.Now(), actor, fmt.Sprintf(format, args...))
	}
	delay := func() Time { return Time(r.Intn(4)) * time.Millisecond }
	conds := []*Cond{NewCond(k), NewCond(k)}
	// q holds at most one item: put waits on notFull while it is full, and
	// every Get or Drain that frees the slot wakes a waiting put.
	q := NewQueue[int](k)
	notFull := NewCond(k)
	var procs []*Proc

	body := func(p *Proc) {
		for i := 0; i < 24; i++ {
			var err error
			switch op := r.Intn(10); op {
			case 0:
				d := delay()
				logf(p.Name(), "sleep %v", d)
				err = p.Sleep(d)
			case 1:
				at := p.Now() + delay()
				logf(p.Name(), "sleep until %v", at)
				err = p.SleepUntil(at)
			case 2:
				logf(p.Name(), "yield")
				err = p.Yield()
			case 3:
				c := r.Intn(len(conds))
				logf(p.Name(), "wait cond %d", c)
				err = conds[c].Wait(p)
			case 4:
				logf(p.Name(), "put %d", i)
				for q.Len() >= 1 && err == nil {
					err = notFull.Wait(p)
				}
				if err == nil {
					q.TryPut(i)
				}
			case 5:
				var v int
				if v, err = q.Get(p); err == nil {
					notFull.Signal()
				}
				logf(p.Name(), "got %d", v)
			case 6:
				if p.InterruptsMasked() {
					p.UnmaskInterrupts()
				} else {
					p.MaskInterrupts()
				}
				logf(p.Name(), "masked %v", p.InterruptsMasked())
			case 7:
				target := procs[r.Intn(len(procs))]
				logf(p.Name(), "interrupt %s", target.Name())
				target.Interrupt(p.Name())
			case 8:
				conds[r.Intn(len(conds))].Signal()
				logf(p.Name(), "signal")
			case 9:
				name := fmt.Sprintf("%s.t%d", p.Name(), i)
				tm := k.Schedule(delay(), func() { logf(name, "fire") })
				if r.Intn(2) == 0 {
					tm.Cancel()
					logf(p.Name(), "cancel %s", name)
				}
			}
			if err != nil {
				logf(p.Name(), "err %v", err)
			}
		}
		logf(p.Name(), "done")
	}
	for i := 0; i < 4; i++ {
		procs = append(procs, k.Spawn(fmt.Sprintf("p%d", i), body))
	}
	procs = append(procs, k.SpawnAt(2*time.Millisecond, "late", body))

	// Two callback chains, so that callbacks tie with each other as well
	// as with proc wakes.
	ticks := 0
	var tick func(chain string) func()
	tick = func(chain string) func() {
		return func() {
			ticks++
			switch op := r.Intn(9); op {
			case 0:
				conds[r.Intn(len(conds))].Signal()
				logf(chain, "signal")
			case 1:
				conds[r.Intn(len(conds))].Broadcast()
				logf(chain, "broadcast")
			case 2:
				logf(chain, "tryput %v", q.Len() < 1 && q.TryPut(-ticks))
			case 3:
				items := q.Drain()
				if items != nil {
					notFull.Broadcast()
				}
				logf(chain, "drain %v", items)
			case 4:
				target := procs[r.Intn(len(procs))]
				logf(chain, "interrupt %s", target.Name())
				target.Interrupt(chain)
			case 5:
				if len(procs) < 9 {
					procs = append(procs, k.Spawn(fmt.Sprintf("s%d", ticks), body))
					logf(chain, "spawn s%d", ticks)
				}
			case 6:
				logf(chain, "stop")
				k.Stop()
			case 7:
				tm := k.Schedule(delay(), func() { logf(chain, "late fire") })
				tm.Cancel()
				logf(chain, "cancel")
			case 8:
				logf(chain, "idle")
			}
			if ticks < 240 {
				k.Schedule(delay(), tick(chain))
			}
		}
	}
	k.Schedule(0, tick("a"))
	k.Schedule(time.Millisecond, tick("b"))

	for seg := 0; seg < 16; seg++ {
		if r.Intn(3) == 0 {
			logf("top", "run -> %d", k.Run())
			continue
		}
		deadline := k.Now() + Time(r.Intn(6))*time.Millisecond
		logf("top", "run until %v -> %d", deadline, k.RunUntil(deadline))
	}
	logf("top", "end events=%d blocked=%v", k.EventsScheduled(), k.Blocked())
}
