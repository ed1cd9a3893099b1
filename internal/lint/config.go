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
	// tests time out against the real clock), internal/netwire (its
	// socket deadlines bound AwaitExternal against lost bytes; they can
	// never influence virtual time) and internal/serve (the daemon's
	// pacer ticks on the wall clock, but each tick only enters the kernel
	// as a journaled advance command, so replay never consults real
	// time) — cmd/ and examples/ entry points are outside SimDriven
	// already.
	WallClockAllow []string

	// ConcurrencyAllow exempts packages from rawgoroutine: internal/sim
	// holds the one sanctioned trampoline (the pooled iter.Pull workers
	// in proc.go that Kernel.dispatch switches to, and the mutex around
	// their free list), internal/sweep the one sanctioned fan-out of
	// *whole independent runs* across host threads, internal/netwire
	// the socket bridge goroutines that drain real sockets while the
	// kernel goroutine blocks inside AwaitExternal, and internal/serve
	// the HTTP side of the daemon
	// (handler goroutines, the SSE hub and the pacer live on the wall
	// side of the AwaitExternal bridge; a single mutex serialises their
	// entry into the kernel); everything else must use sim.Proc
	// scheduling.
	ConcurrencyAllow []string

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
	// call) are rooted automatically.
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
	// bridge: socket-drain goroutines, HTTP handlers, the daemon pacer —
	// entry points the host invokes, never the kernel. Where PR 3's
	// analyzers exempted whole packages, this list names functions.
	BridgeFuncs map[string][]string

	// BridgeAllow exempts whole packages from bridgecall. Only host-side
	// tooling belongs here — code that can never run under the kernel.
	BridgeAllow []string

	// WireRanges assigns each registry package its wire-tag block, closed
	// on both ends. A wirefmt.Register call from any other package — or
	// with a tag outside its package's block — is a wiretag finding.
	WireRanges map[string][2]int

	// WireLock is the committed field-shape lockfile for every registered
	// wire type, relative to the module root (absolute paths are used
	// verbatim; fixtures do that). Shape drift against it is a wiretag
	// finding until the lockfile is regenerated and the wire version
	// bumped.
	WireLock string

	// ErrCodeDoc is the document (relative to the module root, absolute
	// used verbatim) whose error-code table must mention every declared
	// errs.Code, each spelled `code` in backquotes.
	ErrCodeDoc string

	// UnsetOptAllow is unsetopt's audited list: an option struct
	// ("pkgpath.Struct") or one field ("pkgpath.Struct.Field") that no
	// non-test code sets, mapped to the reason it stays an option anyway.
	UnsetOptAllow map[string]string

	// IncludeTests extends the checks into _test.go files. Off by
	// default: tests drive the simulation from outside and may use the
	// real clock for their own watchdogs.
	IncludeTests bool
}

// DefaultConfig is the policy for this repository.
func DefaultConfig() *Config {
	return &Config{
		SimDriven: []string{
			"pvmigrate/internal",
		},
		WallClockAllow: []string{
			"pvmigrate/internal/sim",
			"pvmigrate/internal/netwire",
			"pvmigrate/internal/serve",
		},
		ConcurrencyAllow: []string{
			"pvmigrate/internal/sim",
			"pvmigrate/internal/sweep",
			"pvmigrate/internal/netwire",
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
			// BenchmarkKernelScheduleDispatch reports as 0 allocs/op.
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
			// The processor-sharing CPU under every simulated task: what
			// TestComputeWarmZeroAlloc asserts (a free-list miss is the one
			// audited site).
			"pvmigrate/internal/cluster": {
				"CPU.Compute", "CPU.advance", "CPU.reschedule", "CPU.onCompletion",
			},
			// The encode path and the scalar decode helpers: what
			// TestAppendZeroAlloc asserts. The slice/string readers and
			// Decode allocate their results by design and are not rooted.
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
			"pvmigrate/internal/wirefmt": {
				"Append", "AppendAny",
				"AppendBool", "AppendInt", "AppendInt64", "AppendUvarint",
				"AppendFloat64", "AppendString", "AppendBytes",
				"AppendInts", "AppendFloat64s",
				"Reader.Byte", "Reader.Bool", "Reader.Uvarint",
				"Reader.Int64", "Reader.Int", "Reader.Float64",
				"Reader.Bytes", "Reader.Remaining", "Reader.CheckClaim",
			},
			// The UDP and TCP send paths: what TestBinaryEncodeZeroAlloc
			// asserts stay pooled.
			"pvmigrate/internal/netwire": {
				"Backend.SendDgram", "stream.Send",
			},
		},
		AllocExempt: []string{
			// Structured-error construction: reached only after a decode
			// or encode has already failed, never on the success path the
			// allocs/op gates measure.
			"pvmigrate/internal/errs",
		},
		BridgeFuncs: map[string][]string{
			// netwire's socket bridge: goroutines that drain real sockets
			// while the kernel goroutine is parked in AwaitExternal, plus
			// the host-side teardown the harness owns.
			"pvmigrate/internal/netwire": {
				"Backend.readDgrams", "Backend.acceptLoop",
				"Backend.matchDial", "stream.read", "Backend.Shutdown",
			},
			// serve's wall side: net/http invokes the handlers, the pacer
			// runs on its own goroutine, and journal replay happens before
			// the kernel is live. Each enters the kernel only through the
			// mutex-serialised apply path, which journals under
			// AwaitExternal.
			"pvmigrate/internal/serve": {
				"Server.ServeHTTP", "Server.Close", "Server.pace",
				"Server.handleSubmit", "Server.handleJob",
				"Server.handleMigrate", "Server.handlePlan",
				"Server.handleFault",
				"Server.handleOwner", "Server.handleRollback",
				"Server.handleAdvance", "Server.handleTrace",
				"Server.serveStream",
			},
		},
		BridgeAllow: []string{
			// The linter itself: host tooling that shells out to `go list`
			// and reads source trees by design; nothing here ever runs
			// under the kernel.
			"pvmigrate/internal/lint",
		},
		WireRanges: map[string][2]int{
			"pvmigrate/internal/core": {16, 31},
			"pvmigrate/internal/pvm":  {32, 47},
			"pvmigrate/internal/mpvm": {48, 63},
			"pvmigrate/internal/ft":   {64, 79},
		},
		WireLock:   "wiretags.lock",
		ErrCodeDoc: "DESIGN.md",
		UnsetOptAllow: map[string]string{
			// Varied by tests only: each names the test that builds a
			// world with it. The analyzer sees the non-test build.
			"pvmigrate/internal/harness.ServeScenario": "RunServing's experiment description; serving_test.go builds every value",
			"pvmigrate/internal/chaos.Config.Seed":     "the sweep's per-seed default (inside SweepOptions.withDefaults) and every chaos test name a schedule with it",
			"pvmigrate/internal/chaos.Config.Real":     "chaos_test.go audits with real Opt math so the loss fingerprints every gradient",
			"pvmigrate/internal/chaos.SweepOptions":    "sized by the chaos tests' -seeds/-parallel flags",
			// Read by bench/fleet.go, which ordinary PRs may not edit; the
			// next benchmark-archetype PR drops them (ROADMAP item 4).
			"pvmigrate/internal/harness.FleetScenario.PollInterval":  "bench/fleet.go:120 reads it into its own gs.FleetPolicy",
			"pvmigrate/internal/harness.FleetScenario.LoadThreshold": "bench/fleet.go reads it into its own gs.FleetPolicy",
			"pvmigrate/internal/harness.FleetScenario.MovesPerTick":  "bench/fleet.go reads it into its own gs.FleetPolicy",
			"pvmigrate/internal/harness.FleetScenario.StormDwell":    "bench/fleet.go:142 reads it to schedule the storm's owner returns",
			// The lint policy itself: one repository, one policy; the
			// fixtures under testdata vary it from analyzers_test.go.
			"pvmigrate/internal/lint.Config": "the lint policy table; analyzers_test.go varies it per fixture",
		},
	}
}
