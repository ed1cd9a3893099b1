package cluster

import (
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

func twoHosts(k *sim.Kernel) *Cluster {
	return New(k, netsim.Params{},
		DefaultHostSpec("host1"),
		DefaultHostSpec("host2"))
}

func TestClusterConstruction(t *testing.T) {
	k := sim.NewKernel()
	c := twoHosts(k)
	if len(c.Hosts()) != 2 {
		t.Fatalf("hosts = %d", len(c.Hosts()))
	}
	if c.Host(0).Name() != "host1" || c.Host(1).Name() != "host2" {
		t.Fatal("host names wrong")
	}
	if c.Host(5) != nil || c.Host(-1) != nil {
		t.Fatal("out-of-range Host not nil")
	}
	if c.Host(0).Iface().Host() != 0 {
		t.Fatal("iface host id mismatch")
	}
}

func TestMigrationCompatibility(t *testing.T) {
	k := sim.NewKernel()
	c := New(k, netsim.Params{},
		HostSpec{Name: "hp1", Arch: "hppa1.1-hpux9", Speed: 9e6, MemMB: 64},
		HostSpec{Name: "hp2", Arch: "hppa1.1-hpux9", Speed: 9e6, MemMB: 64},
		HostSpec{Name: "sun1", Arch: "sparc-sunos4", Speed: 7e6, MemMB: 32},
	)
	if !c.Host(0).MigrationCompatible(c.Host(1)) {
		t.Fatal("same-arch hosts not compatible")
	}
	if c.Host(0).MigrationCompatible(c.Host(2)) {
		t.Fatal("cross-arch hosts compatible")
	}
}

func TestMemoryAccounting(t *testing.T) {
	k := sim.NewKernel()
	h := twoHosts(k).Host(0)
	if err := h.AllocMem(60); err != nil {
		t.Fatal(err)
	}
	if err := h.AllocMem(10); !errs.Is(err, CodeOutOfMemory) {
		t.Fatalf("over-allocation: %v, want %s", err, CodeOutOfMemory)
	}
	h.FreeMem(30)
	if err := h.AllocMem(10); err != nil {
		t.Fatal(err)
	}
	if h.MemUsedMB() != 40 {
		t.Fatalf("used = %d", h.MemUsedMB())
	}
	h.FreeMem(1000)
	if h.MemUsedMB() != 0 {
		t.Fatal("FreeMem below zero")
	}
}

func TestOwnerReclamationAddsLoadAndNotifies(t *testing.T) {
	k := sim.NewKernel()
	h := twoHosts(k).Host(0)
	var events []bool
	h.Cluster().Watch(func(h *Host, c Change) {
		if c == OwnerChanged {
			events = append(events, h.OwnerActive())
		}
	})
	h.SetOwnerActive(true)
	if h.LoadAverage() != 1 {
		t.Fatalf("load = %d after owner arrival", h.LoadAverage())
	}
	h.SetOwnerActive(true) // idempotent
	h.SetOwnerActive(false)
	if h.LoadAverage() != 0 {
		t.Fatalf("load = %d after owner departure", h.LoadAverage())
	}
	if len(events) != 2 || !events[0] || events[1] {
		t.Fatalf("events = %v", events)
	}
}

func TestOwnerActivityGenerator(t *testing.T) {
	k := sim.NewKernel()
	h := twoHosts(k).Host(0)
	arrivals, departures := 0, 0
	h.Cluster().Watch(func(h *Host, c Change) {
		switch {
		case c != OwnerChanged:
		case h.OwnerActive():
			arrivals++
		default:
			departures++
		}
	})
	StartOwnerActivity(h, 42, 10*time.Minute, 5*time.Minute)
	k.RunUntil(4 * time.Hour)
	if arrivals < 5 || arrivals > 40 {
		t.Fatalf("arrivals = %d over 4h with 15 min mean cycle", arrivals)
	}
	if departures < arrivals-1 || departures > arrivals {
		t.Fatalf("arrivals %d, departures %d", arrivals, departures)
	}
}

func TestOwnerActivityDeterministic(t *testing.T) {
	run := func() []sim.Time {
		k := sim.NewKernel()
		h := twoHosts(k).Host(0)
		var times []sim.Time
		h.Cluster().Watch(func(_ *Host, c Change) {
			if c == OwnerChanged {
				times = append(times, k.Now())
			}
		})
		StartOwnerActivity(h, 7, time.Hour, 20*time.Minute)
		k.RunUntil(24 * time.Hour)
		return times
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("owner activity not deterministic")
		}
	}
}

// TestWatchHearsEveryChange drives every path that moves a host's owner
// state, availability, dead verdict or run-queue length — compute
// admission, completion and interruption, background load, owner arrival
// and departure, a crash and a recovery, a verdict and its withdrawal — and
// requires the watch to hear each one with the new
// value already readable: a watcher that keeps only what it heard ends with
// the host's live facts. A bare NewCPU tells no one.
func TestWatchHearsEveryChange(t *testing.T) {
	k := sim.NewKernel()
	c := twoHosts(k)
	h := c.Host(0)
	var runq, runqEvents, owner, avail, verdicts int
	alive, dead := true, false
	// Errorf, not Fatalf: the run-queue changes are heard inside procs.
	c.Watch(func(w *Host, ch Change) {
		if w != h {
			t.Errorf("change %d reported for %s", ch, w.Name())
		}
		switch ch {
		case RunqChanged:
			if w.LoadAverage() == runq {
				t.Errorf("%v: RunqChanged with the run queue still %d", k.Now(), runq)
			}
			runq = w.LoadAverage()
			runqEvents++
		case OwnerChanged:
			owner++
		case AvailChanged:
			alive = w.Alive()
			avail++
		case DeadChanged:
			dead = w.DeclaredDead()
			verdicts++
		}
	})
	bare := NewCPU(k, 1e6)
	for i := 0; i < 3; i++ {
		k.SpawnAt(sim.Time(i)*time.Second, "job", func(p *sim.Proc) { h.CPU().Compute(p, 2e6) })
		k.Spawn("bare", func(p *sim.Proc) { bare.Compute(p, 1e6) })
	}
	victim := k.Spawn("victim", func(p *sim.Proc) { h.CPU().Compute(p, 50e6) })
	k.Schedule(1500*time.Millisecond, func() { victim.Interrupt("migrate") })
	bg := NewBackgroundLoad(h)
	k.Schedule(2*time.Second, func() { bg.Set(2) })
	k.Schedule(3*time.Second, func() { h.SetOwnerActive(true) })
	k.Schedule(4*time.Second, func() { h.Fail() })
	k.Schedule(4500*time.Millisecond, func() { h.SetDeclaredDead(true); h.SetDeclaredDead(true) })
	k.Schedule(5*time.Second, func() { h.Recover() })
	k.Schedule(5500*time.Millisecond, func() { h.SetDeclaredDead(false) })
	k.Schedule(6*time.Second, func() { bg.Set(0); h.SetOwnerActive(false) })
	for at := 100 * time.Millisecond; at < 8*time.Second; at += 250 * time.Millisecond {
		k.Schedule(at, func() {
			if runq != h.LoadAverage() {
				t.Fatalf("%v: heard run queue %d, host has %d", k.Now(), runq, h.LoadAverage())
			}
		})
	}
	k.Run()
	if runq != h.LoadAverage() || alive != h.Alive() || dead != h.DeclaredDead() ||
		owner != 2 || avail != 2 || verdicts != 2 {
		t.Fatalf("heard runq %d, alive %v, dead %v, %d owner, %d availability and %d verdict changes; host has runq %d, alive %v, dead %v",
			runq, alive, dead, owner, avail, verdicts, h.LoadAverage(), h.Alive(), h.DeclaredDead())
	}
	// 4 admissions, 4 exits (3 completions, 1 interrupt), 2 + 2 background
	// jobs, the owner's load on, off at the crash, on at recovery, off.
	if runqEvents != 16 {
		t.Fatalf("heard %d run-queue changes, want 16", runqEvents)
	}
}

// TestReceivesIsTheReceiverPredicate: a host receives displaced work only
// while it is up, not declared dead and free of its owner — each of the
// three facts alone takes it out.
func TestReceivesIsTheReceiverPredicate(t *testing.T) {
	h := twoHosts(sim.NewKernel()).Host(0)
	for _, tc := range []struct {
		name string
		set  func(on bool)
	}{
		{"crashed", func(on bool) {
			if on {
				h.Fail()
			} else {
				h.Recover()
			}
		}},
		{"declared dead", h.SetDeclaredDead},
		{"owner active", h.SetOwnerActive},
	} {
		if !h.Receives() {
			t.Fatalf("before %s: a clean host does not receive", tc.name)
		}
		tc.set(true)
		if h.Receives() {
			t.Fatalf("%s host still receives", tc.name)
		}
		tc.set(false)
	}
	if !h.Receives() {
		t.Fatal("host does not receive once every fact is restored")
	}
}

func TestBackgroundLoadController(t *testing.T) {
	k := sim.NewKernel()
	h := twoHosts(k).Host(0)
	b := NewBackgroundLoad(h)
	b.Set(3)
	if h.LoadAverage() != 3 || len(b.handles) != 3 {
		t.Fatalf("load = %d", h.LoadAverage())
	}
	b.Set(1)
	if h.LoadAverage() != 1 {
		t.Fatalf("load = %d after Set(1)", h.LoadAverage())
	}
	b.Set(0)
	if h.LoadAverage() != 0 {
		t.Fatalf("load = %d after Set(0)", h.LoadAverage())
	}
}

func TestHostsShareOneNetwork(t *testing.T) {
	k := sim.NewKernel()
	c := twoHosts(k)
	l, err := c.Host(1).Iface().Listen(99)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	k.Spawn("srv", func(p *sim.Proc) {
		if _, err := l.Accept(p); err == nil {
			ok = true
		}
	})
	k.Spawn("cli", func(p *sim.Proc) {
		if _, err := c.Host(0).Iface().Dial(p, 1, 99); err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	k.Run()
	if !ok {
		t.Fatal("cross-host dial failed")
	}
}

// An owner arriving and leaving allocates nothing once warm: the owner's
// load job comes off the CPU's free list and its handle is a value. The
// watchers still hear every change.
func TestOwnerToggleZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	c := twoHosts(k)
	h := c.Host(0)
	changes := 0
	c.Watch(func(*Host, Change) { changes++ })
	toggle := func() {
		h.SetOwnerActive(true)
		h.SetOwnerActive(false)
	}
	toggle() // the first departure puts the owner's job on the free list
	if n := testing.AllocsPerRun(100, toggle); n != 0 {
		t.Errorf("an owner arrival and departure allocate %v times, want 0", n)
	}
	if h.LoadAverage() != 0 || changes == 0 {
		t.Errorf("after the toggles: load %d, %d changes heard; want 0 and some", h.LoadAverage(), changes)
	}
}
