// Heterogeneity: the paper's §3.3 comparison, live. MPVM can only migrate
// between migration-compatible hosts (same architecture and OS), so a
// PA-RISC process cannot land on the SPARC machine. ADM sidesteps the
// problem entirely: it moves *data*, which crosses architectures freely —
// "the real strength of ADM".
package main

import (
	"fmt"
	"time"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/mpvm"
	"pvmigrate/internal/opt"
)

func main() {
	fmt.Println("cluster: hp1, hp2 (PA-RISC/HP-UX) + sun1 (SPARC/SunOS)")
	fmt.Println()

	// --- MPVM: migration is constrained to compatible hosts ------------
	world := harness.NewWorld(harness.WorldSpec{
		Hosts: []cluster.HostSpec{
			{Name: "hp1", Arch: "hppa1.1-hpux9", Speed: 9e6, MemMB: 64},
			{Name: "hp2", Arch: "hppa1.1-hpux9", Speed: 9e6, MemMB: 64},
			{Name: "sun1", Arch: "sparc-sunos4", Speed: 7e6, MemMB: 32},
		},
		System: harness.MPVM,
	})
	defer world.Close()
	k, sys := world.K, world.MPVM
	w, err := sys.SpawnMigratable(0, "worker", 1<<20, func(mt *mpvm.MTask) {
		mt.Compute(mt.Host().Spec().Speed * 30)
	})
	if err != nil {
		panic(err)
	}
	k.Schedule(2*time.Second, func() {
		fmt.Println("MPVM: migrate PA-RISC worker to sun1 (SPARC)?")
		if err := sys.Migrate(w.OrigTID(), 2, core.ReasonManual); err != nil {
			fmt.Println("  refused:", err)
		}
		fmt.Println("MPVM: migrate PA-RISC worker to hp2?")
		if err := sys.Migrate(w.OrigTID(), 1, core.ReasonManual); err != nil {
			fmt.Println("  refused:", err)
		} else {
			fmt.Println("  accepted: hp2 is migration compatible")
		}
	})
	k.Run()
	for _, r := range sys.Records() {
		fmt.Printf("  migrated %v: hp1 → hp2 in %.2f s\n", r.VP, r.Cost().Seconds())
	}
	fmt.Println()

	// --- ADM: data crosses architectures freely ------------------------
	fmt.Println("ADM: repartitioning the same workload across ALL three machines,")
	fmt.Println("     weighting shares by machine power (9, 9 and 7 MFLOP/s):")
	shares, err := adm.Partition(30000, []float64{9e6, 9e6, 7e6}, []bool{true, true, true})
	if err != nil {
		panic(err)
	}
	for i, name := range []string{"hp1", "hp2", "sun1"} {
		fmt.Printf("  %-5s %5d exemplars (%d KB as portable floats)\n",
			name, shares[i], shares[i]*opt.ExemplarBytes(64)>>10)
	}
	fmt.Println()
	fmt.Println("ADM: sun1's owner returns — fragment its share across the HP machines:")
	target, _ := adm.Partition(30000, []float64{9e6, 9e6, 7e6}, []bool{true, true, false})
	moves, _ := adm.PlanMoves(shares, target)
	for _, m := range moves {
		names := []string{"hp1", "hp2", "sun1"}
		fmt.Printf("  move %5d exemplars %s → %s\n", m.Count, names[m.From], names[m.To])
	}
	fmt.Println()
	fmt.Println("MPVM/UPVM migrate processes between like machines; ADM's data moves anywhere.")
}
