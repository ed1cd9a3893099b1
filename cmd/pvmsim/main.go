// pvmsim runs a configurable Opt scenario on the simulated workstation
// network under a chosen migration system, printing the application runtime
// and any migration measurements. It is the general-purpose scenario runner
// behind the fixed experiments of migrate-bench.
//
// Examples:
//
//	pvmsim -system mpvm -mb 9.8 -migrate-at 8s
//	pvmsim -system adm -mb 4.2 -iters 8 -migrate-at 6s
//	pvmsim -system upvm -hosts 3 -slaves 3 -mb 1.2
//	pvmsim -system ft -hosts 8 -slaves 15 -crashes 3 -trace
//	pvmsim -system mpvm -migrate-at 8s -wire
//	pvmsim -system fleet -hosts 1000 -vps 100000 -shards 8 -storms 200
//
// Exit status: 0 on success, 1 when the scenario ran and failed, 2 for a
// usage error — an unknown -system, a bad plan flag, or a count or name that
// cannot describe a run (-hosts -1, -system ft -hosts 1, -slaves -2,
// -shards -1, -placement bogus), refused with a harness.bad-scenario error
// naming the flag.
package main

import (
	"flag"
	"fmt"
	"os"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/plan"
)

func main() {
	system := flag.String("system", "pvm", "pvm | mpvm | upvm | adm | ft | fleet")
	mb := flag.Float64("mb", 0.6, "training-set size in MB")
	hosts := flag.Int("hosts", 2, "workstation count")
	slaves := flag.Int("slaves", 0, "slave VP count (default: one per host)")
	iters := flag.Int("iters", 4, "training iterations")
	seed := flag.Uint64("seed", 1, "random seed")
	real := flag.Bool("real", false, "carry and crunch real exemplar data (keep -mb small)")
	migrateAt := flag.Duration("migrate-at", 0, "virtual time to migrate the last slave (0 = never)")
	migrateTo := flag.Int("migrate-to", 0, "destination host for the migration")
	warm := flag.Bool("warm", false, "mpvm: use iterative-precopy (warm) migration for -migrate-at")
	planEvac := flag.Int("plan-evac", -1, "mpvm: at -migrate-at, evacuate this host via a declarative migration plan instead of moving one slave")
	planMode := flag.String("plan-mode", "warm", "plan migration mode: warm | cold")
	planConc := flag.Int("plan-concurrency", 0, "plan in-flight migration cap (default: 2 warm, 1 cold)")
	trace := flag.Bool("trace", false, "print the migration protocol stage timeline (mpvm/upvm) or the recovery timeline (ft)")
	crashes := flag.Int("crashes", 0, "ft: number of seeded host crashes to inject")
	outage := flag.Duration("outage", 0, "ft: revive each crashed host after this long (0 = stay down)")
	crashFrom := flag.Duration("crash-from", 0, "ft: earliest crash time (default 5s)")
	crashTo := flag.Duration("crash-to", 0, "ft: latest crash time (default 30s; short runs may finish before crashes land)")
	wire := flag.Bool("wire", false, "carry every cross-host payload over real kernel sockets (internal/netwire); timing stays the simulated cost model's")
	vps := flag.Int("vps", 0, "fleet: work-unit count (default 100000)")
	shards := flag.Int("shards", 0, "fleet: scheduler shard count (default 8; 1 = centralized)")
	duration := flag.Duration("duration", 0, "fleet: simulated run length (default 10m)")
	storms := flag.Int("storms", 0, "fleet: owner-reclaim arrivals to inject (default hosts/5)")
	placement := flag.String("placement", "", "fleet: destination policy: least-loaded | first-fit | dest-swap")
	flag.Parse()

	if *system == "fleet" {
		runFleet(harness.FleetScenario{
			Hosts: fleetHosts(flag.CommandLine, *hosts), VPs: *vps, Shards: *shards,
			Seed: *seed, Duration: *duration, Storms: *storms,
			Placement: *placement,
		})
		return
	}

	if *system == "ft" {
		runFT(harness.SurvivalConfig{
			Hosts: *hosts, Slaves: *slaves, TotalBytes: int(*mb * 1e6), Iterations: *iters,
			Seed: *seed, Real: *real, Crashes: *crashes, Outage: *outage,
			CrashFrom: *crashFrom, CrashTo: *crashTo,
		}, *mb, *trace)
		return
	}

	sc := harness.Scenario{
		Hosts:      *hosts,
		Slaves:     *slaves,
		TotalBytes: int(*mb * 1e6),
		Iterations: *iters,
		Seed:       *seed,
		Real:       *real,
		MigrateAt:  *migrateAt,
		MigrateTo:  *migrateTo,
		Warm:       *warm,
	}
	var wb *netwire.Backend
	if *wire {
		wb = netwire.New()
		defer wb.Shutdown()
		sc.Wire = wb
	}
	var out *harness.Outcome
	var timeline string
	var planRes *plan.Result
	switch *system {
	case "pvm":
		out = harness.RunPVM(sc)
	case "mpvm":
		if *planEvac >= 0 {
			mode, conc, err := planSettings(flag.CommandLine, *planMode, *planConc)
			if err != nil {
				fail(err)
			}
			out, planRes = harness.RunMPVMPlan(sc, *planEvac, mode, conc)
		} else if *trace {
			log, traced := harness.TraceMPVMMigration(sc)
			out = traced
			timeline = log.Timeline("migration protocol stages:")
		} else {
			out = harness.RunMPVM(sc)
		}
	case "upvm":
		if *trace {
			log, traced := harness.TraceUPVMMigration(sc)
			out = traced
			timeline = log.Timeline("migration protocol stages:")
		} else {
			out = harness.RunUPVM(sc)
		}
	case "adm":
		out = harness.RunADM(sc)
	default:
		fmt.Fprintf(os.Stderr, "pvmsim: unknown system %q\n", *system)
		os.Exit(2)
	}
	if out.Err != nil {
		fail(out.Err)
	}
	fmt.Printf("system: %s, %0.1f MB, %d hosts, %d iterations\n",
		*system, *mb, *hosts, out.Result.Iterations)
	fmt.Printf("application runtime: %.2f s (virtual)\n", out.Elapsed.Seconds())
	if wb != nil {
		st := wb.Stats()
		fmt.Printf("wire traffic: %d datagrams (%d KB), %d streams, %d stream frames (%d KB)\n",
			st.Dgrams, st.DgramBytes>>10, st.Streams, st.StreamFrames, st.StreamBytes>>10)
	}
	if *real && len(out.Result.Losses) > 0 {
		fmt.Printf("loss trajectory: %.4f → %.4f\n",
			out.Result.Losses[0], out.Result.FinalLoss)
	}
	for _, r := range out.Records {
		dest := fmt.Sprintf("host%d", r.To)
		if r.To < 0 {
			dest = "data fragmented across remaining slaves"
		}
		fmt.Printf("migration %v (host%d → %s, %s): obtrusiveness %.2f s, migration cost %.2f s, %d KB state\n",
			r.VP, r.From, dest, r.Reason,
			r.Obtrusiveness().Seconds(), r.Cost().Seconds(), r.StateBytes>>10)
		if r.Mode == core.MigrationWarm {
			fmt.Printf("  warm: %d precopy rounds, %d KB streamed, downtime %.1f ms\n",
				r.Rounds, r.PrecopyBytes>>10, float64(r.Downtime().Microseconds())/1000)
		}
	}
	if planRes != nil {
		fmt.Printf("plan %s: %d moved, %d failed, settled in %.2f s\n",
			planRes.Plan, planRes.Moved, planRes.Failed, planRes.Elapsed.Seconds())
	}
	if *migrateAt > 0 && len(out.Records) == 0 {
		fmt.Println("note: no migration occurred (did the run finish before -migrate-at?)")
	}
	if timeline != "" {
		fmt.Println()
		fmt.Print(timeline)
	}
}

// fail prints a run's error and exits: 2 when the harness refused the
// scenario (a usage error), 1 when the scenario ran and failed.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "pvmsim: %v\n", err)
	if errs.Is(err, harness.CodeBadScenario) {
		os.Exit(2)
	}
	os.Exit(1)
}

// explicitFlag reports whether the named flag was set on the command
// line, as opposed to carrying its registered default. Flags whose useful
// default depends on *other* flags (fleet's -hosts, the plan's
// -plan-concurrency) use this to tell "user said so" from "left alone".
func explicitFlag(fs *flag.FlagSet, name string) bool {
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			explicit = true
		}
	})
	return explicit
}

// fleetHosts keeps the shared -hosts flag's small default from shrinking
// the fleet scenario: unless -hosts was given explicitly, the fleet uses
// its own 1000-host default.
func fleetHosts(fs *flag.FlagSet, hosts int) int {
	if explicitFlag(fs, "hosts") {
		return hosts
	}
	return 0
}

// planSettings resolves the plan flags: -plan-mode must name a real mode,
// and -plan-concurrency, unless given explicitly, defaults by mode — warm
// transfers overlap the running task so two in flight is cheap, while cold
// stop-and-copy stays fully staged.
func planSettings(fs *flag.FlagSet, mode string, conc int) (plan.Mode, int, error) {
	m := plan.Mode(mode)
	switch m {
	case plan.ModeCold, plan.ModeWarm:
	default:
		return "", 0, errs.Newf(harness.CodeBadScenario, "unknown -plan-mode %q (want warm or cold)", mode)
	}
	if !explicitFlag(fs, "plan-concurrency") {
		if m == plan.ModeWarm {
			return m, 2, nil
		}
		return m, 1, nil
	}
	if conc < 1 {
		return "", 0, errs.Newf(harness.CodeBadScenario, "-plan-concurrency must be at least 1, got %d", conc)
	}
	return m, conc, nil
}

// runFleet runs the fleet-scale scheduling scenario and prints its
// outcome summary.
func runFleet(sc harness.FleetScenario) {
	out := harness.RunFleet(sc)
	if out.Err != nil {
		fail(out.Err)
	}
	sc = sc.WithDefaults()
	fmt.Printf("system: fleet, %d hosts, %d work units, %d shards, seed %d\n",
		sc.Hosts, out.FinalTotal, sc.Shards, sc.Seed)
	fmt.Printf("decisions: %d (%d rebalance moves, %d owner evacuations), %d units displaced\n",
		out.Decisions, out.Moves, out.Evacuations, out.UnitsMoved)
	fmt.Printf("final load: min %d, max %d across hosts\n", out.FinalMinLoad, out.FinalMaxLoad)
	fmt.Printf("kernel events: %d, decision fingerprint: %#016x\n", out.Events, out.Fingerprint)
}

// runFT runs the fault-tolerance survival experiment: heartbeat detection,
// coordinated checkpoints, and recovery from seeded host crashes. mb is the
// -mb value as given, for the summary line.
func runFT(c harness.SurvivalConfig, mb float64, showTrace bool) {
	out := harness.Survival(c)
	if out.Err != nil {
		fail(out.Err)
	}
	fmt.Printf("system: ft, %0.1f MB, %d hosts, %d iterations, %d injected crashes\n",
		mb, c.Hosts, out.Result.Iterations, len(out.Crashes))
	if c.Crashes > len(out.Crashes) {
		fmt.Printf("note: %d of %d planned crashes landed after the run finished\n",
			c.Crashes-len(out.Crashes), c.Crashes)
	}
	fmt.Printf("application runtime: %.2f s (virtual), %d coordinated checkpoints\n",
		out.Elapsed.Seconds(), out.Checkpoints)
	if c.Real && len(out.Result.Losses) > 0 {
		fmt.Printf("loss trajectory: %.4f → %.4f\n",
			out.Result.Losses[0], out.Result.FinalLoss)
	}
	for _, cr := range out.Crashes {
		fmt.Printf("crash: host%d down at %.2f s\n", cr.Host, cr.At.Seconds())
	}
	for _, r := range out.Recoveries {
		fmt.Printf("recovery: host%d — detected +%.2f s, recovered +%.2f s, %d VPs respawned, %d iterations lost\n",
			r.Host, (r.DetectedAt - r.CrashedAt).Seconds(),
			(r.RecoveredAt - r.CrashedAt).Seconds(), r.RespawnedVPs, r.LostIterations)
	}
	if n := out.RecoverySecs.N(); n > 0 {
		fmt.Printf("recovery time: mean %.2f s, p95 %.2f s over %d recoveries\n",
			out.RecoverySecs.Mean(), out.RecoverySecs.Percentile(95), n)
	}
	if showTrace {
		fmt.Println()
		fmt.Print(out.Trace.Filter("fault:", "ft:", "ckpt:").
			Timeline("fault / checkpoint / recovery timeline:"))
	}
}
