package lint

// Config names the packages each invariant governs and the calls each
// analyzer treats as significant. All policy is here — an analyzer never
// consults comments to decide scope (the one comment the suite reads,
// droppederr's `// lint:reason`, justifies a single discard site; it cannot
// widen scope).
type Config struct {
	// SimDriven lists import-path prefixes whose code runs under the
	// virtual-time kernel and must therefore be deterministic. Everything
	// the determinism analyzers flag is scoped to these.
	SimDriven []string

	// WallClockAllow exempts packages from nowallclock: the sim kernel
	// itself (it owns virtual time and may consult nothing else, but its
	// tests time out against the real clock) and internal/serve (the daemon's pacer ticks on the wall clock, but each
	// tick only enters the kernel as a journaled advance command, so
	// replay never consults real time) — cmd/ and examples/ entry points
	// are outside SimDriven already.
	WallClockAllow []string

	// EffectCalls maps a callee package path to the function/method names
	// whose invocation is order-visible: scheduling a sim event, sending a
	// frame, recording trace state. A map-range body containing one of
	// these depends on iteration order.
	EffectCalls map[string][]string

	// EffectNames lists callee base names that are order-visible wherever
	// they are declared — the repo's own send/trace/cancel helpers, which
	// wrap the packages above and would otherwise hide the effect from
	// maporder.
	EffectNames []string

	// ProtocolFuncs maps a callee package path to the function/method
	// names on the protocol message paths whose error result must be
	// consumed: a swallowed Send/Dial/Transfer or checkpoint-I/O error is
	// a protocol hole the chaos sweep can only find by luck.
	ProtocolFuncs map[string][]string

	// AllocHot anchors noalloc's hot set: package path → function keys
	// ("Kernel.Schedule", "Append") whose allocs/op == 0 the benchmark
	// gates assert at run time. Everything statically reachable from these
	// (static calls and interface dispatch; spawned goroutines excluded —
	// they are off the caller's synchronous path) must be allocation-free,
	// with `// lint:alloc <reason>` as the audited escape hatch. The
	// registered wire encoders (the enc argument of every wirefmt.Register
	// call) are rooted automatically. A key naming no function in its
	// loaded package is itself a finding.
	AllocHot map[string][]string

	// AllocExempt exempts callee packages from noalloc's reachability
	// closure and call-site checks: calls *into* these packages are
	// failure-path escapes — building a structured error allocates, but
	// only after the hot path has already failed, so the zero-alloc
	// benchmarks never see it. The packages' own bodies are not analyzed
	// as hot either.
	AllocExempt []string

	// BridgeFuncs is bridgecall's audited allowlist: package path →
	// function keys sanctioned to perform blocking host I/O outside a
	// Kernel.AwaitExternal callback. These are the wall side of the
	// bridge: HTTP handlers, the daemon pacer —
	// entry points the host invokes, never the kernel. Where PR 3's
	// analyzers exempted whole packages, this list names functions. A key
	// naming no function in its loaded package is itself a finding.
	BridgeFuncs map[string][]string

	// BridgeAllow exempts whole packages from bridgecall. Only host-side
	// tooling belongs here — code that can never run under the kernel.
	BridgeAllow []string

	// ErrCodeDoc is the document (relative to the module root, absolute
	// used verbatim) whose error-code table must mention every declared
	// errs.Code, each spelled `code` in backquotes.
	ErrCodeDoc string

	// FieldAllow is fielduse's audited list: a package ("pkgpath"), a
	// struct ("pkgpath.Struct") or one field ("pkgpath.Struct.Field") that
	// may go unset or unread, mapped to the reason it stays anyway.
	FieldAllow map[string]string
}

// DefaultConfig is the policy for this repository.
func DefaultConfig() *Config {
	return &Config{
		SimDriven: []string{
			"pvmigrate/internal",
		},
		WallClockAllow: []string{
			"pvmigrate/internal/sim",
			"pvmigrate/internal/serve",
		},
		EffectCalls: map[string][]string{
			"pvmigrate/internal/sim": {
				"Spawn", "SpawnAt", "Schedule", "ScheduleAt",
				"Signal", "Broadcast", "Interrupt",
			},
			"pvmigrate/internal/netsim": {
				"Send", "SendDgram", "Dial", "Deliver",
			},
			"pvmigrate/internal/trace": {
				"Record", "Add", "Append", "Emit",
			},
			"pvmigrate/internal/pvm": {
				"Send", "SendAs", "SendCtl", "Spawn", "ForceKill", "Kill",
			},
		},
		EffectNames: []string{
			// The repo's own wrappers around the calls above: package-local
			// helpers that send, schedule, trace, or tear down protocol
			// state. Declared by name because the wrapper's own package is
			// the one under analysis.
			"Send", "SendAs", "SendCtl", "SendDgram",
			"Spawn", "SpawnAt", "Schedule", "ScheduleAt",
			"Signal", "Broadcast", "Interrupt", "ForceKill", "Kill",
			"Deliver", "trace", "Trace", "Record", "Emit",
			"cancelMigration", "maybeFinishFlush",
		},
		ProtocolFuncs: map[string][]string{
			"pvmigrate/internal/netsim": {
				"Send", "Dial", "Transfer",
			},
			"pvmigrate/internal/checkpoint": {
				"Write", "Read", "Save", "Load",
			},
			"pvmigrate/internal/pvm": {
				"Send", "SendAs", "Spawn", "CrashHost", "ReviveHost",
			},
			"pvmigrate/internal/mpvm": {
				"Send", "SendAs", "Migrate", "FlushAndHold", "Respawn",
			},
		},
		AllocHot: map[string][]string{
			// The kernel schedule/dispatch path: what
			// BenchmarkKernelScheduleDispatch reports as 0 allocs/op and
			// TestComputeWarmZeroAlloc drives through the CPU below.
			"pvmigrate/internal/sim": {
				"Kernel.Schedule", "Kernel.ScheduleAt", "Kernel.scheduleAt",
				"Kernel.scheduleWake", "Kernel.scheduleWakeTimer",
				"Kernel.run", "Kernel.dispatch",
			},
			// ADM's processed-flag bitmap on the chunk path: what
			// TestShardChunkPathZeroAlloc and
			// TestADMSlaveChunkLoopZeroAlloc assert.
			"pvmigrate/internal/adm": {
				"Shard.NextChunk", "Shard.MarkRange", "Shard.Processed", "Shard.Reset",
			},
			// The processor-sharing CPU under every simulated task, and an
			// owner's arrival and departure, whose load job comes off the
			// same free list: what TestComputeWarmZeroAlloc and
			// TestOwnerToggleZeroAlloc assert (a free-list miss is the one
			// audited site).
			"pvmigrate/internal/cluster": {
				"CPU.Compute", "CPU.advance", "CPU.reschedule", "CPU.onCompletion",
				"Host.SetOwnerActive",
			},
			// The fleet scheduler's steady-state planning paths: what
			// TestFleetSteadyStateTickZeroAlloc asserts. Actuation
			// (Fleet.tick's MoveOne dispatch and decision append) is
			// deliberately outside the static hot set — a tick that moves
			// work pays for the move, not for the planning — and is held at
			// zero by TestFleetDecisionPathZeroAlloc alone.
			// The load index under every target and placement, and the
			// counter target's one-pass evacuation, are rooted by name so
			// they stay covered whoever calls them: what
			// TestCountTargetEvacuateZeroAlloc asserts. Fleet.mark is
			// rooted too: the cluster watch and LoadIndex.OnChange reach it
			// through func values, which noalloc does not follow.
			"pvmigrate/internal/gs": {
				"Fleet.beatShard", "Fleet.gossipRound", "Fleet.planShard", "Fleet.mark",
				"LoadIndex.Add", "LoadIndex.BestEligible", "LoadIndex.WorstEligible",
				"LoadIndex.Spread", "CountTarget.EvacuateHost",
			},
			// The encode path and the scalar decode helpers: what
			// TestAppendZeroAlloc asserts. Decode and the slice/string
			// readers are hot too, reached from netwire's receive roots:
			// Decode's cursor is pooled, and the only allocations they may
			// make are the audited results the receiver keeps (a string,
			// a slice, a copy of a byte field).
			"pvmigrate/internal/wirefmt": {
				"Append", "AppendAny",
				"AppendBool", "AppendInt", "AppendInt64", "AppendUvarint",
				"AppendFloat64", "AppendString", "AppendBytes",
				"AppendInts", "AppendFloat64s",
				"Reader.Byte", "Reader.Bool", "Reader.Uvarint",
				"Reader.Int64", "Reader.Int", "Reader.Float64",
				"Reader.Bytes", "Reader.Remaining", "Reader.CheckClaim",
			},
			// The datagram and stream send and receive paths, one frame
			// path into each host's datagram pair underneath: what
			// TestStreamFrameZeroAlloc and TestDgramZeroAlloc assert for a
			// nil payload. A frame is one non-blocking write per packet
			// and one read, into the packet buffer where it is decoded in
			// place. The audited allocations are a host's pair, made on
			// first use, the copies of frames parked for a later receive
			// (read out of order, or drained past the backlog bound or a
			// full pair) and multi-fragment reassembly. The two socket
			// calls restart makes through func values are rooted by name.
			"pvmigrate/internal/netwire": {
				"Backend.SendDgram", "stream.Send",
				"Backend.RecvDgram", "stream.Recv",
				"write", "read",
			},
			// The simulated message hop: what TestDgramHopZeroAlloc,
			// TestConnSendZeroAlloc and pvm's TestCrossHostMessageAllocs
			// assert. The delivery is scheduled as a func value bound once
			// per pooled record, which noalloc does not follow, so it is
			// rooted by name; a pool miss is the one audited site.
			"pvmigrate/internal/netsim": {
				"Iface.SendDgram", "Conn.Send", "delivery.deliver",
			},
			// Packing and unpacking a message: what TestSmallBufferAllocs
			// asserts. PkBytes is left out: it boxes its slice into the
			// item's shared reference field (one small allocation, for the
			// ADM fragment flags only).
			"pvmigrate/internal/core": {
				"Buffer.PkInt", "Buffer.PkFloat64s", "Buffer.PkString",
				"Buffer.PkVirtual", "Buffer.PkBuffer",
				"Reader.Reset", "Reader.next",
			},
		},
		AllocExempt: []string{
			// Structured-error construction: reached only after a decode
			// or encode has already failed, never on the success path the
			// allocs/op gates measure.
			"pvmigrate/internal/errs",
		},
		BridgeFuncs: map[string][]string{
			// serve's wall side: net/http invokes the handlers, the pacer
			// runs on its own goroutine, and journal replay happens before
			// the kernel is live. Each enters the kernel only through the
			// mutex-serialised apply path, which journals under
			// AwaitExternal. The POST handlers are closures of
			// Server.post, which routes calls, so they need no entry.
			"pvmigrate/internal/serve": {
				"Server.ServeHTTP", "Server.Close", "Server.pace",
				"Server.handleJob", "Server.handleTrace", "Server.serveStream",
			},
			// netsim's pooled delivery hands AwaitExternal these two as
			// func values bound once per record (so a hop allocates no
			// closure); the call graph does not follow func values, so
			// they are listed. Each runs only as that callback.
			"pvmigrate/internal/netsim": {
				"delivery.sendWire", "delivery.recvWire",
			},
			// netwire's restart makes its two socket calls through these
			// func values (so its test can substitute a fake); each runs
			// only inside restart, under the AwaitExternal of a frame's
			// send or delivery.
			"pvmigrate/internal/netwire": {"write", "read"},
		},
		BridgeAllow: []string{
			// The linter itself: host tooling that shells out to `go list`
			// and reads source trees by design; nothing here ever runs
			// under the kernel.
			"pvmigrate/internal/lint",
		},
		ErrCodeDoc: "DESIGN.md",
		FieldAllow: map[string]string{
			// chaos's runner is `go test`, as scripts/linkcheck.sh says:
			// its tests read its results and set its options.
			"pvmigrate/internal/chaos": "the chaos sweep is test-only by design",
			// Unread, kept on purpose.
			"pvmigrate/internal/checkpoint.entry.prev":       "the previously committed image, the fallback when the latest is torn (CorruptLatest in torn_test.go)",
			"pvmigrate/internal/checkpoint.entry.hasPrev":    "marks entry.prev valid, with it",
			"pvmigrate/internal/harness.paperCell.name":      "labels a paper-tolerance pin; paperTable (experiments_test.go) reports each cell by it",
			"pvmigrate/internal/harness.paperCell.paper":     "the paper's printed value, which paperTable holds each measurement to",
			"pvmigrate/internal/cluster.CPU.totalDone":       "test oracle: the CPU tests check the work done against it",
			"pvmigrate/internal/upvm.ULP.localMsgs":          "test oracle: the UPVM tests count hand-offs with it",
			"pvmigrate/internal/upvm.ULP.remoteMsgs":         "test oracle: the UPVM tests count routed sends with it",
			"pvmigrate/internal/netwire.Stats.PacketsRead":   "test oracle: TestWireRunsReadEveryPacketOnce matches it to the packets written",
			"pvmigrate/internal/netwire.Stats.StreamPackets": "the stream half of the packets written; TestWireRunsReadEveryPacketOnce sums it, and netwire.packets_per_op will (ROADMAP item 8(c))",
			"pvmigrate/internal/upvm.inboundXfer.got":        "the bytes a ULP transfer received; the check against its header's total reads it (ROADMAP item 21(a))",
			"pvmigrate/bench.workloadDef.why":                "documents each workload beside its definition; bench/ changes only with the benchmark it defines",
			// Set by no non-test code. Read by bench/fleet.go, which
			// changes only with the benchmark; the next benchmark change
			// drops them (ROADMAP item 8(d)).
			"pvmigrate/internal/harness.FleetScenario.PollInterval":  "bench/fleet.go reads it into its own gs.FleetPolicy",
			"pvmigrate/internal/harness.FleetScenario.LoadThreshold": "bench/fleet.go reads it into its own gs.FleetPolicy",
			"pvmigrate/internal/harness.FleetScenario.MovesPerTick":  "bench/fleet.go reads it into its own gs.FleetPolicy",
			"pvmigrate/internal/harness.FleetScenario.StormDwell":    "bench/fleet.go reads it to schedule the storm's owner returns",
			// The lint policy itself: one repository, one policy; the
			// fixtures under testdata vary it from analyzers_test.go.
			"pvmigrate/internal/lint.Config": "the lint policy table; analyzers_test.go varies it per fixture",
		},
	}
}
