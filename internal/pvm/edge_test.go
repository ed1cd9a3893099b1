package pvm

import (
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

func TestDirectRouteFallsBackWhenPeerGone(t *testing.T) {
	// A direct-route send to an exited task cannot dial; the message falls
	// back to the daemon route and ends up held (not lost silently, not a
	// crash).
	k, m := testMachine(t, 2, Config{DirectRoute: true})
	dead, _ := m.Spawn(1, "dead", func(task *Task) {})
	var sendErr error
	m.Spawn(0, "send", func(task *Task) {
		task.Proc().Sleep(2 * time.Second)
		sendErr = task.Send(dead.Mytid(), 0, core.NewBuffer().PkInt(1))
	})
	k.Run()
	if sendErr != nil {
		t.Fatalf("send errored instead of falling back: %v", sendErr)
	}
	if len(m.Daemon(1).HeldMessages()) != 1 {
		t.Fatalf("held = %d", len(m.Daemon(1).HeldMessages()))
	}
}

func TestDaemonAccessors(t *testing.T) {
	k, m := testMachine(t, 2, Config{})
	d := m.Daemon(1)
	if d.TID() != core.DaemonTID(1) {
		t.Fatalf("daemon tid = %v", d.TID())
	}
	if d.Machine() != m {
		t.Fatal("daemon machine wrong")
	}
	if m.Daemon(-1) != nil || m.Daemon(5) != nil {
		t.Fatal("out-of-range daemons not nil")
	}
	if m.NHosts() != 2 {
		t.Fatalf("NHosts = %d", m.NHosts())
	}
	task, _ := m.Spawn(1, "t", func(task *Task) {
		task.Proc().Sleep(time.Second)
	})
	if got := d.Tasks(); len(got) != 1 || got[0] != task {
		t.Fatalf("Tasks = %v", got)
	}
	if task.Name() != "t" || task.Daemon() != d || task.Machine() != m {
		t.Fatal("task accessors wrong")
	}
	k.Run()
}

func TestSendAfterExit(t *testing.T) {
	k, m := testMachine(t, 1, Config{})
	var err1, err2 error
	m.Spawn(0, "quitter", func(task *Task) {
		task.Exit()
		err1 = task.Send(core.MakeTID(0, 1), 0, core.NewBuffer())
		_, _, _, err2 = task.Recv(core.AnyTID, core.AnyTag)
	})
	k.Run()
	if err1 != ErrTaskExited || err2 != ErrTaskExited {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
}

func TestWireBytesIncludesHeader(t *testing.T) {
	msg := &Message{Buf: core.NewBuffer().PkVirtual(100)}
	if msg.WireBytes() != 100+msgHeaderBytes {
		t.Fatalf("WireBytes = %d", msg.WireBytes())
	}
}

// An older peer can still emit the control kinds stock pvmd used to serve
// (group server, pvm_kill, the spawn RPC). They must cost exactly what any
// unknown kind costs — the datagram and the daemon's processing charge —
// and do nothing: no kill, no held message, no further event.
func TestRetiredControlKindsIgnored(t *testing.T) {
	type outcome struct {
		events uint64
		end    sim.Time
		held   int
		exited bool
	}
	run := func(kind string) outcome {
		k, m := testMachine(t, 2, Config{})
		defer k.Close()
		victim, _ := m.Spawn(1, "victim", func(task *Task) {
			task.Recv(core.AnyTID, core.AnyTag)
		})
		k.Schedule(time.Second, func() {
			m.Daemon(0).SendCtl(1, 64, &CtlMsg{Kind: kind, From: core.MakeTID(0, 1), Payload: victim.Mytid()})
		})
		k.Run()
		return outcome{k.EventsScheduled(), k.Now(),
			len(m.Daemon(0).HeldMessages()) + len(m.Daemon(1).HeldMessages()), victim.Exited()}
	}
	want := run("no-such-kind")
	if want.held != 0 || want.exited {
		t.Fatalf("unknown kind was not ignored: %+v", want)
	}
	for _, kind := range []string{"group", "kill", "spawn"} {
		if got := run(kind); got != want {
			t.Errorf("CtlMsg kind %q: %+v, want %+v (an ignored kind)", kind, got, want)
		}
	}
}
