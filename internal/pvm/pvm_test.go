package pvm

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// testMachine builds a kernel + n-host cluster + machine.
func testMachine(t *testing.T, n int, cfg Config) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, n)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("host" + string(rune('1'+i)))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	return k, NewMachine(cl, cfg)
}

func runToCompletion(t *testing.T, k *sim.Kernel) {
	t.Helper()
	k.Run()
	// Daemons legitimately stay blocked; application tasks must not.
	// Checked by individual tests via their own completion flags.
}

// TestOnlyDaemonsAndTasksStayBlocked: a task's listener and its direct
// connections' pumps are kernel callbacks, not procs. Tasks on a ring pass
// a message on, then park in a Recv nothing answers; at quiescence the
// blocked procs are exactly the pvmds and the tasks, on either route.
func TestOnlyDaemonsAndTasksStayBlocked(t *testing.T) {
	const hosts, tasks = 3, 6
	for _, direct := range []bool{false, true} {
		k, m := testMachine(t, hosts, Config{DirectRoute: direct})
		ring := make([]*Task, tasks)
		var want []string
		for h := 0; h < hosts; h++ {
			want = append(want, fmt.Sprintf("pvmd%d", h))
		}
		passed := 0
		for i := range ring {
			i := i
			task, err := m.Spawn(i%hosts, fmt.Sprintf("ring%d", i), func(task *Task) {
				next := ring[(i+1)%tasks].Mytid()
				if err := task.Send(next, 1, core.NewBuffer().PkInt(i)); err != nil {
					t.Errorf("send: %v", err)
				}
				if _, _, _, err := task.Recv(core.AnyTID, 1); err == nil {
					passed++
				}
				// lint:reason parks for good: no tag 2 is ever sent
				_, _, _, _ = task.Recv(core.AnyTID, 2)
			})
			if err != nil {
				t.Fatal(err)
			}
			ring[i] = task
			want = append(want, task.Proc().Name())
		}
		if blocked := k.Run(); blocked != len(want) {
			t.Errorf("direct %v: Run left %d procs blocked, want %d", direct, blocked, len(want))
		}
		sort.Strings(want)
		if got := k.Blocked(); !slices.Equal(got, want) {
			t.Errorf("direct %v: blocked %v, want %v", direct, got, want)
		}
		if passed != tasks {
			t.Errorf("direct %v: %d of %d messages passed on", direct, passed, tasks)
		}
		k.Close()
	}
}

func TestSpawnAndTIDs(t *testing.T) {
	k, m := testMachine(t, 2, Config{})
	started := make(map[core.TID]sim.Time)
	t1, err := m.Spawn(0, "a", func(task *Task) { started[task.Mytid()] = task.Proc().Now() })
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := m.Spawn(1, "b", func(task *Task) { started[task.Mytid()] = task.Proc().Now() })
	if t1.Mytid().Host() != 0 || t2.Mytid().Host() != 1 {
		t.Fatalf("tids: %v %v", t1.Mytid(), t2.Mytid())
	}
	if t1.Mytid() == t2.Mytid() {
		t.Fatal("duplicate tids")
	}
	runToCompletion(t, k)
	if len(started) != 2 {
		t.Fatalf("started = %v", started)
	}
	// Bodies start only after the spawn cost.
	for tid, at := range started {
		if at < spawnCost {
			t.Fatalf("task %v started at %v, before spawn cost", tid, at)
		}
	}
	if _, err := m.Spawn(9, "x", func(*Task) {}); err == nil {
		t.Fatal("spawn on missing host succeeded")
	}
}

func TestSendRecvDaemonRoute(t *testing.T) {
	k, m := testMachine(t, 2, Config{})
	var got []float64
	var gotSrc core.TID
	var gotTag int
	recvr, _ := m.Spawn(1, "recv", func(task *Task) {
		src, tag, r, err := task.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		gotSrc, gotTag = src, tag
		got = r.UpkFloat64s()
	})
	sender, _ := m.Spawn(0, "send", func(task *Task) {
		buf := core.NewBuffer().PkFloat64s([]float64{3.14, 2.71})
		if err := task.Send(recvr.Mytid(), 7, buf); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	runToCompletion(t, k)
	if len(got) != 2 || got[0] != 3.14 {
		t.Fatalf("payload = %v", got)
	}
	if gotSrc != sender.Mytid() || gotTag != 7 {
		t.Fatalf("src = %v tag = %d", gotSrc, gotTag)
	}
}

func TestSendRecvDirectRoute(t *testing.T) {
	k, m := testMachine(t, 2, Config{DirectRoute: true})
	done := false
	recvr, _ := m.Spawn(1, "recv", func(task *Task) {
		_, _, r, err := task.Recv(core.AnyTID, 1)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if s := r.UpkString(); s != "direct" {
			t.Errorf("payload = %q", s)
		}
		done = true
	})
	m.Spawn(0, "send", func(task *Task) {
		if err := task.Send(recvr.Mytid(), 1, core.NewBuffer().PkString("direct")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	runToCompletion(t, k)
	if !done {
		t.Fatal("message not delivered")
	}
}

func TestRecvTagAndSrcFiltering(t *testing.T) {
	k, m := testMachine(t, 2, Config{})
	var order []int
	recvr, _ := m.Spawn(1, "recv", func(task *Task) {
		// Wait specifically for tag 2 first, then tag 1.
		for _, tag := range []int{2, 1} {
			_, _, r, err := task.Recv(core.AnyTID, tag)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			v := r.UpkInt()
			order = append(order, v)
		}
	})
	m.Spawn(0, "send", func(task *Task) {
		task.Send(recvr.Mytid(), 1, core.NewBuffer().PkInt(100))
		task.Send(recvr.Mytid(), 2, core.NewBuffer().PkInt(200))
	})
	runToCompletion(t, k)
	if len(order) != 2 || order[0] != 200 || order[1] != 100 {
		t.Fatalf("order = %v (tag filtering broken)", order)
	}
}

func TestRecvSrcFilter(t *testing.T) {
	k, m := testMachine(t, 3, Config{})
	var from core.TID
	var senderB *Task
	recvr, _ := m.Spawn(0, "recv", func(task *Task) {
		src, _, _, err := task.Recv(senderB.Mytid(), core.AnyTag)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		from = src
	})
	m.Spawn(1, "a", func(task *Task) {
		task.Send(recvr.Mytid(), 0, core.NewBuffer().PkInt(1))
	})
	senderB, _ = m.Spawn(2, "b", func(task *Task) {
		task.Proc().Sleep(2 * time.Second) // arrive later than a
		task.Send(recvr.Mytid(), 0, core.NewBuffer().PkInt(2))
	})
	runToCompletion(t, k)
	if from != senderB.Mytid() {
		t.Fatalf("received from %v, want %v", from, senderB.Mytid())
	}
}

func TestPairwiseFIFOOrdering(t *testing.T) {
	for _, direct := range []bool{false, true} {
		k, m := testMachine(t, 2, Config{DirectRoute: direct})
		const n = 20
		var got []int
		recvr, _ := m.Spawn(1, "recv", func(task *Task) {
			for i := 0; i < n; i++ {
				_, _, r, err := task.Recv(core.AnyTID, core.AnyTag)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				v := r.UpkInt()
				got = append(got, v)
			}
		})
		m.Spawn(0, "send", func(task *Task) {
			for i := 0; i < n; i++ {
				task.Send(recvr.Mytid(), 0, core.NewBuffer().PkInt(i))
			}
		})
		runToCompletion(t, k)
		if len(got) != n {
			t.Fatalf("direct=%v: received %d of %d", direct, len(got), n)
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("direct=%v: order %v", direct, got)
			}
		}
	}
}

func TestNRecv(t *testing.T) {
	k, m := testMachine(t, 2, Config{})
	var nrecvEmpty, nrecvFull bool
	recvr, _ := m.Spawn(1, "recv", func(task *Task) {
		_, _, _, ok, err := task.NRecv(core.AnyTID, core.AnyTag)
		if err != nil {
			t.Errorf("nrecv: %v", err)
		}
		nrecvEmpty = !ok
		task.Proc().Sleep(5 * time.Second) // let the message arrive
		_, tag, r, ok, err := task.NRecv(core.AnyTID, core.AnyTag)
		if err != nil || !ok || tag != 3 {
			t.Errorf("nrecv: tag=%d ok=%v err=%v", tag, ok, err)
			return
		}
		if v := r.UpkInt(); v != 9 {
			t.Errorf("payload = %d", v)
		}
		nrecvFull = ok
	})
	m.Spawn(0, "send", func(task *Task) {
		task.Send(recvr.Mytid(), 3, core.NewBuffer().PkInt(9))
	})
	runToCompletion(t, k)
	if !nrecvEmpty || !nrecvFull {
		t.Fatalf("nrecvEmpty=%v nrecvFull=%v", nrecvEmpty, nrecvFull)
	}
}

func TestLargeMessageTimeScalesWithWire(t *testing.T) {
	k, m := testMachine(t, 2, Config{DirectRoute: true})
	var recvAt sim.Time
	recvr, _ := m.Spawn(1, "recv", func(task *Task) {
		if _, _, _, err := task.Recv(core.AnyTID, core.AnyTag); err == nil {
			recvAt = task.Proc().Now()
		}
	})
	var sentAt sim.Time
	m.Spawn(0, "send", func(task *Task) {
		sentAt = task.Proc().Now()
		task.Send(recvr.Mytid(), 0, core.NewBuffer().PkVirtual(1_000_000))
	})
	runToCompletion(t, k)
	elapsed := sim.Seconds(recvAt - sentAt)
	// ~1 MB at ~1.04 MB/s goodput plus packing copies and setup: ~1.0-1.3 s.
	if elapsed < 0.9 || elapsed > 1.5 {
		t.Fatalf("1 MB message took %.3f s", elapsed)
	}
}

func TestComputeRunsOnHostCPU(t *testing.T) {
	k, m := testMachine(t, 1, Config{})
	speed := m.Cluster().Host(0).Spec().Speed
	var took sim.Time
	m.Spawn(0, "worker", func(task *Task) {
		start := task.Proc().Now()
		if err := task.Compute(speed * 2); err != nil { // 2 s of work
			t.Errorf("compute: %v", err)
		}
		took = task.Proc().Now() - start
	})
	runToCompletion(t, k)
	if took != 2*time.Second {
		t.Fatalf("compute took %v, want 2s", took)
	}
}

func TestComputeSlowsUnderLoad(t *testing.T) {
	k, m := testMachine(t, 1, Config{})
	h := m.Cluster().Host(0)
	load := cluster.NewBackgroundLoad(h)
	load.Set(1)
	speed := h.Spec().Speed
	var took sim.Time
	m.Spawn(0, "worker", func(task *Task) {
		start := task.Proc().Now()
		task.Compute(speed * 2)
		took = task.Proc().Now() - start
	})
	runToCompletion(t, k)
	if took != 4*time.Second {
		t.Fatalf("loaded compute took %v, want 4s", took)
	}
}

func TestExitDropsTask(t *testing.T) {
	k, m := testMachine(t, 1, Config{})
	task, _ := m.Spawn(0, "quick", func(task *Task) {})
	runToCompletion(t, k)
	if !task.Exited() {
		t.Fatal("task did not exit")
	}
	if got := len(m.Daemon(0).Tasks()); got != 0 {
		t.Fatalf("daemon still lists %d tasks", got)
	}
}

func TestSendToExitedTaskIsHeld(t *testing.T) {
	k, m := testMachine(t, 2, Config{})
	dead, _ := m.Spawn(1, "dead", func(task *Task) {})
	m.Spawn(0, "send", func(task *Task) {
		task.Proc().Sleep(2 * time.Second) // after dead exits
		task.Send(dead.Mytid(), 0, core.NewBuffer().PkInt(1))
	})
	runToCompletion(t, k)
	if len(m.Daemon(1).HeldMessages()) != 1 {
		t.Fatalf("held = %d, want 1", len(m.Daemon(1).HeldMessages()))
	}
}

func TestSendInvalidTID(t *testing.T) {
	k, m := testMachine(t, 1, Config{})
	var errs []error
	m.Spawn(0, "send", func(task *Task) {
		errs = append(errs, task.Send(core.NoTID, 0, core.NewBuffer()))
		errs = append(errs, task.Send(core.DaemonTID(0), 0, core.NewBuffer()))
		errs = append(errs, task.Send(core.MakeTID(7, 1), 0, core.NewBuffer()))
	})
	runToCompletion(t, k)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("bad send %d succeeded", i)
		}
	}
}
