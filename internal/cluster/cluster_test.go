package cluster

import (
	"testing"
	"time"

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
	if err := h.AllocMem(10); err == nil {
		t.Fatal("over-allocation succeeded")
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
	h.OnOwnerChange(func(_ *Host, active bool) { events = append(events, active) })
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
	h.OnOwnerChange(func(_ *Host, active bool) {
		if active {
			arrivals++
		} else {
			departures++
		}
	})
	a := StartOwnerActivity(h, 42, 10*time.Minute, 5*time.Minute)
	k.RunUntil(4 * time.Hour)
	a.Stop()
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
		h.OnOwnerChange(func(_ *Host, _ bool) { times = append(times, k.Now()) })
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

func TestBackgroundLoadController(t *testing.T) {
	k := sim.NewKernel()
	h := twoHosts(k).Host(0)
	b := NewBackgroundLoad(h)
	b.Set(3)
	if h.LoadAverage() != 3 || b.N() != 3 {
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
