package mpvm

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// migrateBaseline is BENCH_MIGRATE.json: cold stop-and-copy downtime
// against warm iterative-precopy downtime for the same large-state task.
// The comparison is a gate, not just a record — the benchmark fails if
// warm downtime is not strictly below both the cold downtime and the
// state-size-independent configured bound.
type migrateBaseline struct {
	StateBytes     int     `json:"state_bytes"`
	DirtyRateBps   int     `json:"dirty_rate_bps"`
	ColdDowntimeMs float64 `json:"cold_downtime_ms"`
	WarmDowntimeMs float64 `json:"warm_downtime_ms"`
	WarmBoundMs    float64 `json:"warm_bound_ms"`
	WarmRounds     int     `json:"warm_rounds"`
	PrecopyBytes   int     `json:"precopy_bytes"`
	DowntimeRatio  float64 `json:"downtime_ratio"`
}

// benchMigration migrates one large-state task (warm or cold) on a fresh
// two-host system and returns its migration record — the benchmark's
// *testing.B twin of measureDowntime.
func benchMigration(b *testing.B, warm bool, stateBytes, dirtyBps int) core.MigrationRecord {
	b.Helper()
	k := sim.NewKernel()
	specs := []cluster.HostSpec{cluster.DefaultHostSpec("host1"), cluster.DefaultHostSpec("host2")}
	cl := cluster.New(k, netsim.Params{}, specs...)
	s := New(pvm.NewMachine(cl, pvm.Config{}), Config{})
	speed := cl.Host(0).Spec().Speed
	mt, err := s.SpawnMigratable(0, "big", stateBytes, func(mt *MTask) {
		mt.SetDirtyRate(float64(dirtyBps))
		if err := mt.Compute(speed * 120); err != nil {
			b.Errorf("compute: %v", err)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	k.Schedule(2*time.Second, func() {
		migrate := s.Migrate
		if warm {
			migrate = s.MigrateWarm
		}
		if err := migrate(mt.OrigTID(), 1, core.ReasonOwnerReclaim); err != nil {
			b.Errorf("migrate: %v", err)
		}
	})
	k.Run()
	recs := s.Records()
	if len(recs) != 1 {
		b.Fatalf("records = %d, want 1", len(recs))
	}
	return recs[0]
}

var migrateBaselineOnce sync.Once

// BenchmarkMigrateBaseline measures the bounded-downtime guarantee and
// writes the snapshot to BENCH_MIGRATE_OUT (default: the package
// directory, like the kernel baseline). The committed repo-root
// BENCH_MIGRATE.json is the reference baseline; CI uploads the run's
// snapshot as an artifact. Timings are virtual (the simulated cost
// model), so the snapshot is machine-independent and bit-stable.
func BenchmarkMigrateBaseline(b *testing.B) {
	migrateBaselineOnce.Do(func() {
		const stateBytes = 32 << 20
		const dirtyBps = 64 << 10
		cold := benchMigration(b, false, stateBytes, dirtyBps)
		warm := benchMigration(b, true, stateBytes, dirtyBps)
		if cold.Mode != core.MigrationCold || warm.Mode != core.MigrationWarm {
			b.Fatalf("modes: cold=%q warm=%q", cold.Mode, warm.Mode)
		}
		if warm.Downtime() >= cold.Downtime() {
			b.Fatalf("warm downtime %v not below cold downtime %v", warm.Downtime(), cold.Downtime())
		}
		bound := warmDowntimeBound()
		if warm.Downtime() >= bound {
			b.Fatalf("warm downtime %v exceeds configured bound %v", warm.Downtime(), bound)
		}
		base := migrateBaseline{
			StateBytes:     stateBytes,
			DirtyRateBps:   dirtyBps,
			ColdDowntimeMs: cold.Downtime().Seconds() * 1e3,
			WarmDowntimeMs: warm.Downtime().Seconds() * 1e3,
			WarmBoundMs:    bound.Seconds() * 1e3,
			WarmRounds:     warm.Rounds,
			PrecopyBytes:   warm.PrecopyBytes,
			DowntimeRatio:  float64(cold.Downtime()) / float64(warm.Downtime()),
		}
		out := os.Getenv("BENCH_MIGRATE_OUT")
		if out == "" {
			out = "BENCH_MIGRATE.json"
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatalf("marshal migrate baseline: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("write %s: %v", out, err)
		}
		b.Logf("migrate baseline written to %s: %s", out, data)
	})
}
