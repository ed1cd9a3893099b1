package harness

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// fleetBaseline is the `fleet` section of BENCH_KERNEL.json: the sharded
// scheduler's footprint at acceptance scale. AllocsPerDecision is a gate,
// not just a record — the benchmark fails if the steady-state decision
// path allocates.
type fleetBaseline struct {
	Hosts             int     `json:"hosts"`
	VPs               int     `json:"vps"`
	Shards            int     `json:"shards"`
	Decisions         int     `json:"decisions"`
	EventsPerSec      float64 `json:"events_per_sec"`
	DecisionsPerSec   float64 `json:"decisions_per_sec"`
	NsPerDecision     float64 `json:"ns_per_decision"`
	AllocsPerDecision float64 `json:"allocs_per_decision"`
}

// measureFleetStorm times the acceptance scenario — 1,000 hosts ×
// 100,000 work units under an owner-reclaim storm — with the host clock.
func measureFleetStorm(b *testing.B, base *fleetBaseline) {
	sc := FleetScenario{Seed: 1994}.WithDefaults()
	start := time.Now()
	out := RunFleet(sc)
	dur := time.Since(start)
	if out.FinalTotal != sc.VPs {
		b.Fatalf("fleet storm lost work units: %d != %d", out.FinalTotal, sc.VPs)
	}
	base.Hosts = sc.Hosts
	base.VPs = sc.VPs
	base.Shards = sc.Shards
	base.Decisions = out.Decisions
	base.EventsPerSec = float64(out.Events) / dur.Seconds()
	base.DecisionsPerSec = float64(out.Decisions) / dur.Seconds()
}

// measureDecisionPath pins ns/decision and allocs/decision on a fleet
// held in perpetual imbalance: a refill event restores the hotspot before
// every tick, so each tick spends its full per-shard move budget forever.
// The warmup window grows every buffer (decision log, load-index bucket
// heads, event heap) past what the measured window needs, so a nonzero
// malloc count can only come from the decision path itself.
func measureDecisionPath(b *testing.B, base *fleetBaseline) {
	const (
		hosts    = 256
		perHost  = 40
		interval = 5 * time.Second
		window   = 2000 // ticks per phase
	)
	k := sim.NewKernel()
	specs := make([]cluster.HostSpec, hosts)
	for i := range specs {
		specs[i] = cluster.DefaultHostSpec("h")
	}
	cl := cluster.New(k, netsim.Params{}, specs...)
	tgt := gs.NewCountTarget(cl)
	for i := 0; i < hosts; i++ {
		tgt.Seed(i, perHost)
	}
	pol := gs.DefaultFleetPolicy()
	pol.Shards = 8
	pol.LoadThreshold = perHost + 2
	pol.Source = gs.SourceWorkUnits
	pol.MovesPerTick = 8
	fleet := gs.NewFleet(cl, tgt, pol)
	fleet.Start()
	// Refill fires just before each tick (scheduled first at every
	// timestamp): pile 4x the even share onto the first host of every
	// shard and trim the rest back, so planning always finds work.
	idx := tgt.Index()
	var refill func()
	refill = func() {
		for i := 0; i < hosts; i++ {
			if i%(hosts/8) == 0 {
				idx.Set(i, perHost*4)
			} else {
				idx.Set(i, perHost)
			}
		}
		k.Schedule(interval, refill)
	}
	refill()
	k.RunUntil(window * interval)
	warm := len(fleet.Decisions())
	if warm == 0 {
		b.Fatal("decision-path warmup produced no decisions")
	}
	fleet.ResetDecisions()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	k.RunUntil(2 * window * interval)
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := len(fleet.Decisions())
	if n == 0 || n > warm {
		b.Fatalf("measured window made %d decisions (warmup %d) — imbalance not steady", n, warm)
	}
	base.NsPerDecision = float64(dur.Nanoseconds()) / float64(n)
	base.AllocsPerDecision = float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

var fleetBaselineOnce sync.Once

// BenchmarkFleetBaseline measures the fleet scheduler and merges the
// result into the kernel baseline snapshot as its `fleet` section. CI
// runs it right after BenchmarkKernelBaseline with BENCH_KERNEL_OUT
// pointing at the same file; standalone it merges into (or creates)
// ../sim/BENCH_KERNEL.json.
func BenchmarkFleetBaseline(b *testing.B) {
	fleetBaselineOnce.Do(func() {
		var base fleetBaseline
		measureFleetStorm(b, &base)
		measureDecisionPath(b, &base)
		if base.AllocsPerDecision != 0 {
			b.Fatalf("fleet decision path allocates %.3f/decision, want 0", base.AllocsPerDecision)
		}
		out := os.Getenv("BENCH_KERNEL_OUT")
		if out == "" {
			out = "../sim/BENCH_KERNEL.json"
		}
		snapshot := map[string]json.RawMessage{}
		if prev, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(prev, &snapshot); err != nil {
				b.Fatalf("parse existing %s: %v", out, err)
			}
		}
		section, err := json.Marshal(base)
		if err != nil {
			b.Fatalf("marshal fleet baseline: %v", err)
		}
		snapshot["fleet"] = section
		data, err := json.MarshalIndent(snapshot, "", "  ")
		if err != nil {
			b.Fatalf("marshal baseline: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("write %s: %v", out, err)
		}
		b.Logf("fleet baseline merged into %s: %s", out, section)
	})
}
