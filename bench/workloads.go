package main

import (
	"hash"
	"hash/fnv"
	"math"
)

// opResult is what one checked op reports.
type opResult struct {
	// simCost is the workload's modelled cost of the op: virtual seconds
	// of migration cost, or work units displaced on fleet_storm.
	simCost float64
	// fingerprint folds the op's simulated outcome. Every op of a run does
	// identical simulated work, so it must equal the first op's.
	fingerprint uint64
	// detail carries the workload's own outcome to its layers method.
	detail any
}

// workload is one closed-loop, single-client op stream. A workload value is
// the fixture its ops share; building it is part of set-up.
type workload interface {
	// op runs one operation and checks its output. A non-nil error is a
	// failed op. tr is nil when tracing is off.
	op(tr *tracer) (opResult, error)
	// layers turns a traced pass into this workload's per-layer metrics.
	// last is the result of the final traced op.
	layers(tr *tracer, last opResult, m map[string]float64)
}

// workloadDef registers a workload. warmup is the fixed number of untimed
// ops one set-up runs after building the fixture: about half a second of
// work, so that the set-ups of a run together bring the heap, the scheduler
// and the caches to the state the timed ops see.
type workloadDef struct {
	name   string
	why    string
	root   string   // name of the op's root span
	extras []string // spans of work only the traced pass does
	warmup int
	build  func(seed uint64) (workload, error)
}

// workloadDefs lists the workloads in the order BENCHMARK.json does.
var workloadDefs = []workloadDef{
	{
		name:   "paper_tables",
		why:    "one serial regeneration of the paper's Tables 1-6 in memory: the run a reader makes; ADM does ~90% of the host work, wire/gs/serve none",
		root:   "harness.paper_tables",
		warmup: 1, build: buildPaper,
	},
	{
		name:   "wire_migration",
		why:    "every MPVM cold, UPVM and MPVM warm migration over real loopback sockets: the only path through wirefmt, netwire and AwaitExternal",
		root:   "harness.wire_migration",
		extras: []string{"netsim.mem_op"},
		warmup: 5, build: buildWire,
	},
	{
		name:   "fleet_storm",
		why:    "1,000 hosts x 100,000 work units under a sustained owner-reclaim storm: gs.Fleet, LoadIndex and cluster build do all the work, ~9k kernel events",
		root:   "harness.fleet_storm",
		warmup: 4, build: buildFleet,
	},
	{
		name:   "serve_session",
		why:    "a journaled pvmsimd session through the HTTP handler then replayed: the only path through serve, ft rollback, plan.Executor and the centralized gs.Scheduler",
		root:   "serve.session",
		extras: []string{"serve.journal"},
		warmup: 8, build: buildServe,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// hasher folds values into an FNV-1a fingerprint.
type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHash() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) u64(v uint64) {
	for i := range h.buf {
		h.buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.h.Write(h.buf[:]) // hash.Hash.Write never fails
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) sum() uint64   { return h.h.Sum64() }
