package pvm

import (
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// One cross-host task-to-task message allocates its Message and its Buffer
// and nothing else: not the datagrams or the segment that carry it over the
// hops, and not the cursor its receiver unpacks it with. Both routes: the
// daemons' (task → pvmd → pvmd → task datagrams) and the direct TCP one.
func TestCrossHostMessageAllocs(t *testing.T) {
	for _, direct := range []bool{false, true} {
		k, m := testMachine(t, 2, Config{DirectRoute: direct})
		const tag = 5
		var got, sum int
		recv, err := m.Spawn(1, "recv", func(task *Task) {
			for {
				_, _, r, err := task.Recv(core.AnyTID, tag)
				if err != nil {
					return
				}
				sum += r.UpkInt()
				if r.Err() != nil {
					t.Errorf("unpack: %v", r.Err())
				}
				got++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		next := sim.NewQueue[int](k)
		if _, err := m.Spawn(0, "send", func(task *Task) {
			for {
				v, err := next.Get(task.Proc())
				if err != nil {
					return
				}
				if err := task.Send(recv.Mytid(), tag, core.NewBuffer().PkInt(v)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		step := func() {
			next.TryPut(1)
			k.RunUntil(k.Now() + sim.Time(time.Second))
		}
		step() // spawn both tasks, dial the direct route, warm every pool
		step()
		if n := testing.AllocsPerRun(50, step); n != 2 {
			t.Errorf("direct=%v: one message allocates %v times, want 2 (Message and Buffer)", direct, n)
		}
		if got != 53 || sum != 53 {
			t.Errorf("direct=%v: received %d messages summing %d, want 53 and 53", direct, got, sum)
		}
	}
}
