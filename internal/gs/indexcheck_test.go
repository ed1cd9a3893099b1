package gs

import (
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/upvm"
)

// These tests are the satellite cross-check for the incremental load
// index: after randomized move/exit churn, the index must agree with a
// brute-force recount (the pre-index HostLoad algorithm) at every host.

// checkIndex fails the test at every host where the target's index
// disagrees with bruteHostLoad.
func checkIndex[ID comparable](t *testing.T, k *sim.Kernel, target *VPTarget[ID], hosts int) {
	t.Helper()
	for h := 0; h < hosts; h++ {
		if got, want := target.HostLoad(h), target.bruteHostLoad(h); got != want {
			t.Errorf("t=%v host%d: index=%d brute=%d", k.Now(), h, got, want)
		}
	}
}

func TestMPVMIndexMatchesBruteForceUnderChurn(t *testing.T) {
	const hosts = 5
	k, _, sys := setup(t, hosts)
	target := NewVPTarget(sys)
	rng := sim.NewRNG(42)
	var vps []core.TID
	for i := 0; i < 12; i++ {
		secs := 5 + rng.Float64()*120
		mt := spawnWorker(t, sys, rng.Intn(hosts), secs)
		target.Track(mt.OrigTID())
		vps = append(vps, mt.OrigTID())
	}
	// Seeded migration churn: 40 move attempts at random times; failures
	// (already migrating, dead dest, exited) are part of the churn.
	for i := 0; i < 40; i++ {
		at := sim.FromSeconds(rng.Float64() * 150)
		orig := vps[rng.Intn(len(vps))]
		dest := rng.Intn(hosts)
		k.ScheduleAt(at, func() { _ = sys.Migrate(orig, dest, core.ReasonManual) })
	}
	// A host crash mid-churn exercises the exit hooks of force-killed
	// tasks.
	k.ScheduleAt(sim.FromSeconds(60), func() { _ = sys.Machine().CrashHost(hosts - 1) })
	for s := 10; s <= 200; s += 10 {
		k.ScheduleAt(sim.FromSeconds(float64(s)), func() { checkIndex(t, k, target, hosts) })
	}
	k.RunUntil(4 * time.Minute)
	checkIndex(t, k, target, hosts)
}

func TestMPVMIndexAfterRespawn(t *testing.T) {
	k, cl, sys := setup(t, 3)
	_ = cl
	target := NewVPTarget(sys)
	mt := spawnWorker(t, sys, 2, 300)
	target.Track(mt.OrigTID())
	k.ScheduleAt(sim.FromSeconds(5), func() { _ = sys.Machine().CrashHost(2) })
	k.ScheduleAt(sim.FromSeconds(10), func() {
		_, err := sys.Respawn(mt.OrigTID(), 0, "w", 1<<20, func(nt *mpvm.MTask) {
			nt.Compute(nt.Host().Spec().Speed * 5)
		})
		if err != nil {
			t.Errorf("respawn: %v", err)
		}
	})
	k.RunUntil(2 * time.Minute)
	checkIndex(t, k, target, 3)
	if target.HostLoad(2) != 0 {
		t.Fatalf("crashed host still loaded: %d", target.HostLoad(2))
	}
}

func TestUPVMIndexMatchesBruteForceUnderChurn(t *testing.T) {
	const hosts = 4
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("h" + string(rune('1'+i)))
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	sys := upvm.New(pvm.NewMachine(cl, pvm.Config{}), upvm.Config{})
	rng := sim.NewRNG(7)
	specsU := make([]upvm.ULPSpec, 10)
	for i := range specsU {
		specsU[i] = upvm.ULPSpec{Host: rng.Intn(hosts), DataBytes: 50_000}
	}
	_, err := sys.Start("churn", specsU, func(u *upvm.ULP, rank int) {
		u.Compute(u.Host().Spec().Speed * (10 + 15*float64(rank)))
	})
	if err != nil {
		t.Fatal(err)
	}
	target := NewVPTarget(sys)
	for i := range specsU {
		target.Track(i)
	}
	for i := 0; i < 30; i++ {
		at := sim.FromSeconds(rng.Float64() * 120)
		id := rng.Intn(len(specsU))
		dest := rng.Intn(hosts)
		k.ScheduleAt(at, func() { _ = sys.Migrate(id, dest, core.ReasonManual) })
	}
	for s := 5; s <= 180; s += 5 {
		k.ScheduleAt(sim.FromSeconds(float64(s)), func() { checkIndex(t, k, target, hosts) })
	}
	k.RunUntil(10 * time.Minute)
	checkIndex(t, k, target, hosts)
	if target.Index().Total() != 0 {
		t.Fatalf("all ULPs done but index total = %d", target.Index().Total())
	}
}
