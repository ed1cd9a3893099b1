package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/harness"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/netwire"
)

// wire_migration: one op runs every process-migration variant over real
// sockets — MPVM cold at the six Table 2 sizes, UPVM at the same six
// (Table 4x) and one MPVM warm precopy at 20.8 MB — each leg on a fresh
// netwire backend (loopback UDP daemons, TCP state stream, binary codec)
// that is shut down when the leg ends. It is the only workload in which
// wirefmt encode/decode, netwire syscalls and Kernel.AwaitExternal run, and
// the one where protocol code (mpvm, upvm, pvm, netsim, sim), not ADM, is
// the in-memory majority. The warm leg stays at 20.8 MB: a larger image at
// migrateAfterDistribution's instant migrates a VP that has not received
// its shard yet (PrecopyBytes == 0), which measures nothing.

// wireLeg is one migration run of the op.
type wireLeg struct {
	span string // span name: the layer metric the leg feeds
	run  func(harness.Scenario) *harness.Outcome
	sc   harness.Scenario
}

func wireLegs(seed uint64) []wireLeg {
	var legs []wireLeg
	for _, total := range harness.Table2Sizes {
		legs = append(legs,
			wireLeg{"mpvm.cold_run", harness.RunMPVM, sweepScenario(total, 8, seed)},
			wireLeg{"upvm.migrate_run", harness.RunUPVM, sweepScenario(total, 10, seed)},
		)
	}
	warm := sweepScenario(20_800_000, 8, seed)
	warm.Warm = true
	return append(legs, wireLeg{"mpvm.warm_run", harness.RunMPVM, warm})
}

// wireOutcome is what one pass over the legs produced.
type wireOutcome struct {
	simCost     float64
	fingerprint uint64
	cold208     core.MigrationRecord // MPVM cold, 20.8 MB
	warm        core.MigrationRecord
}

type wireWorkload struct {
	legs []wireLeg

	// Traced-pass state: the wire and codec decorators' counters, and the
	// backends' own traffic statistics summed over legs.
	wc    wireCounters
	codec *timingCodec
	stats netwire.Stats
}

func buildWire(seed uint64) (workload, error) {
	return &wireWorkload{legs: wireLegs(seed), codec: &timingCodec{}}, nil
}

// checkLeg applies the per-leg output check and folds the record.
func checkLeg(leg wireLeg, out *harness.Outcome, h *hasher) (core.MigrationRecord, error) {
	var r core.MigrationRecord
	if out.Err != nil {
		return r, fmt.Errorf("%s %d bytes: %w", leg.span, leg.sc.TotalBytes, out.Err)
	}
	if len(out.Records) != 1 {
		return r, fmt.Errorf("%s %d bytes: %d migration records, want 1", leg.span, leg.sc.TotalBytes, len(out.Records))
	}
	r = out.Records[0]
	if r.StateBytes < leg.sc.TotalBytes/2 {
		return r, fmt.Errorf("%s %d bytes: moved %d state bytes, less than the slave's half", leg.span, leg.sc.TotalBytes, r.StateBytes)
	}
	if leg.sc.Warm && (r.Mode != core.MigrationWarm || r.PrecopyBytes <= 0) {
		return r, fmt.Errorf("warm leg ran mode %q with %d precopy bytes", r.Mode, r.PrecopyBytes)
	}
	h.i64(int64(out.Elapsed))
	h.i64(int64(r.Start))
	h.i64(int64(r.OffSource))
	h.i64(int64(r.Reintegrated))
	h.i64(int64(r.Frozen))
	h.i64(int64(r.StateBytes))
	h.i64(int64(r.Rounds))
	h.i64(int64(r.PrecopyBytes))
	return r, nil
}

// pass runs every leg. overWire selects the socket backend; false is the
// in-memory twin (Wire: nil) whose simulated outcome must be identical.
func (w *wireWorkload) pass(tr *tracer, overWire bool) (wireOutcome, error) {
	var res wireOutcome
	var firstErr error
	h := newHash()
	for _, leg := range w.legs {
		sc := leg.sc
		tr.begin(leg.span)
		var be *netwire.Backend
		if overWire {
			tr.begin("netwire.new")
			if tr != nil {
				be = netwire.NewWithCodec(w.codec)
				sc.Wire = &timingWire{next: be, c: &w.wc}
			} else {
				be = netwire.New()
				sc.Wire = be
			}
			tr.end()
		}
		out := leg.run(sc)
		if be != nil {
			tr.begin("netwire.shutdown")
			be.Shutdown()
			tr.end()
			if tr != nil {
				w.flushLeaves(tr, be.Stats())
			}
		}
		tr.end()
		r, err := checkLeg(leg, out, h)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res.simCost += r.Cost().Seconds()
		switch {
		case leg.sc.Warm:
			res.warm = r
		case leg.span == "mpvm.cold_run" && leg.sc.TotalBytes == 20_800_000:
			res.cold208 = r
		}
	}
	res.fingerprint = h.sum()
	return res, firstErr
}

// flushLeaves turns the decorators' counters for the leg just run into
// aggregate child spans of the leg and resets them. Encode time is inside
// the send calls, so send is recorded exclusive of it; decode runs on the
// backend's reader goroutines, off the blocking path, and stays a counter.
func (w *wireWorkload) flushLeaves(tr *tracer, st netwire.Stats) {
	c := &w.wc
	encN, encNs := w.codec.takeEncode()
	tr.leaf("wirefmt.encode", encN, encNs)
	tr.leaf("netwire.send", c.send.n, c.send.ns-encNs)
	tr.leaf("netwire.recv_wait", c.recv.n, c.recv.ns)
	tr.leaf("netwire.dial", c.dial.n, c.dial.ns)
	tr.leaf("netwire.control", c.ctl.n, c.ctl.ns)
	w.wc = wireCounters{}
	w.stats.Dgrams += st.Dgrams
	w.stats.DgramPackets += st.DgramPackets
	w.stats.DgramBytes += st.DgramBytes
	w.stats.Streams += st.Streams
	w.stats.StreamFrames += st.StreamFrames
	w.stats.StreamBytes += st.StreamBytes
}

func (w *wireWorkload) op(tr *tracer) (opResult, error) {
	res, err := w.pass(tr, true)
	if tr != nil {
		// The traced pass also runs the in-memory twin: it is the netsim
		// layer's own cost, and its modelled cost must equal the wire's.
		tr.begin("netsim.mem_op")
		mem, merr := w.pass(nil, false)
		tr.end()
		if err == nil {
			err = merr
		}
		if err == nil && (mem.simCost != res.simCost || mem.fingerprint != res.fingerprint) {
			err = fmt.Errorf("wire and in-memory backends disagree: cost %.6f vs %.6f virtual s", res.simCost, mem.simCost)
		}
	}
	return opResult{simCost: res.simCost, fingerprint: res.fingerprint, detail: res}, err
}

func (w *wireWorkload) layers(tr *tracer, last opResult, m map[string]float64) {
	ops := float64(tr.ops())
	tot := tr.totals()
	busyMs := func(name string) float64 {
		if lt := tot[name]; lt != nil {
			return lt.Busy / 1e6 / ops
		}
		return 0
	}
	perCall := func(name string, unit float64) float64 {
		if lt := tot[name]; lt != nil && lt.Count > 0 {
			return lt.Busy / float64(lt.Count) / unit
		}
		return 0
	}
	m["netsim.mem_op_ms"] = median(tr.perSpan("netsim.mem_op")) / 1e6
	m["mpvm.cold_run_ms"] = busyMs("mpvm.cold_run")
	m["mpvm.warm_run_ms"] = busyMs("mpvm.warm_run")
	m["upvm.migrate_run_ms"] = busyMs("upvm.migrate_run")
	if res, ok := last.detail.(wireOutcome); ok {
		m["mpvm.sim_obtrusive_s_20_8mb"] = res.cold208.Obtrusiveness().Seconds()
		m["mpvm.sim_restart_s_20_8mb"] = (res.cold208.Cost() - res.cold208.Obtrusiveness()).Seconds()
		m["mpvm.sim_warm_downtime_s"] = res.warm.Downtime().Seconds()
		m["mpvm.sim_warm_rounds"] = float64(res.warm.Rounds)
		m["mpvm.sim_precopy_mb"] = float64(res.warm.PrecopyBytes) / 1e6
	}

	frames := float64(w.stats.Dgrams + w.stats.StreamFrames)
	m["netwire.frames_per_op"] = frames / ops
	m["netwire.packets_per_op"] = float64(w.stats.DgramPackets+w.stats.StreamFrames) / ops
	m["netwire.bytes_per_op"] = float64(w.stats.DgramBytes+w.stats.StreamBytes) / ops
	m["netwire.send_us_per_frame"] = perCall("netwire.send", 1e3)
	m["netwire.recv_wait_us_per_frame"] = perCall("netwire.recv_wait", 1e3)
	m["netwire.dial_us"] = perCall("netwire.dial", 1e3)
	m["netwire.self_ms_per_op"] = busyMs("netwire.new") + busyMs("netwire.shutdown") +
		busyMs("netwire.send") + busyMs("netwire.recv_wait") + busyMs("netwire.dial") + busyMs("netwire.control")

	decN, decNs := w.codec.decode()
	m["wirefmt.encode_ns_per_frame"] = perCall("wirefmt.encode", 1)
	if decN > 0 {
		m["wirefmt.decode_ns_per_frame"] = float64(decNs) / float64(decN)
	}
	m["wirefmt.codec_ms_per_op"] = busyMs("wirefmt.encode") + float64(decNs)/1e6/ops
	m["wirefmt.decode_allocs_per_frame"] = w.codec.decodeAllocsPerFrame()

	census := wireCensus(w.legs)
	m["sim.events_per_op"] = float64(census.events)
	m["sim.external_waits_per_op"] = float64(census.externalWaits)
}

// wireCounters accumulates the timing of one leg's calls through the
// netsim.Wire boundary. The simulator runs one goroutine at a time, so
// plain fields suffice.
type wireCounters struct {
	send, recv, dial, ctl callCounter
}

// callCounter is a call count and the time those calls took.
type callCounter struct {
	n  int64
	ns time.Duration
}

// since adds one call that began at start.
func (c *callCounter) since(start time.Time) {
	c.n++
	c.ns += time.Since(start)
}

// timingWire decorates a netsim.Wire, timing every call across it.
type timingWire struct {
	next netsim.Wire
	c    *wireCounters
}

func (t *timingWire) AttachHost(h netsim.HostID) {
	defer t.c.ctl.since(time.Now())
	t.next.AttachHost(h)
}

func (t *timingWire) SendDgram(src netsim.HostID, srcPort int, dst netsim.HostID, dstPort int, payload any) (uint64, error) {
	defer t.c.send.since(time.Now())
	return t.next.SendDgram(src, srcPort, dst, dstPort, payload)
}

func (t *timingWire) RecvDgram(token uint64) (any, error) {
	defer t.c.recv.since(time.Now())
	return t.next.RecvDgram(token)
}

func (t *timingWire) Listen(h netsim.HostID, port int) error {
	defer t.c.ctl.since(time.Now())
	return t.next.Listen(h, port)
}

func (t *timingWire) CloseListen(h netsim.HostID, port int) {
	defer t.c.ctl.since(time.Now())
	t.next.CloseListen(h, port)
}

func (t *timingWire) Dial(src, dst netsim.HostID, port int) (netsim.WireConn, netsim.WireConn, error) {
	start := time.Now()
	client, server, err := t.next.Dial(src, dst, port)
	t.c.dial.since(start)
	if err != nil {
		return client, server, err
	}
	return &timingConn{next: client, c: t.c}, &timingConn{next: server, c: t.c}, nil
}

// timingConn decorates one stream endpoint.
type timingConn struct {
	next netsim.WireConn
	c    *wireCounters
}

func (t *timingConn) Send(seq uint64, payload any) error {
	defer t.c.send.since(time.Now())
	return t.next.Send(seq, payload)
}

func (t *timingConn) Recv(seq uint64) (any, error) {
	defer t.c.recv.since(time.Now())
	return t.next.Recv(seq)
}

func (t *timingConn) Close() {
	defer t.c.ctl.since(time.Now())
	t.next.Close()
}

// timingCodec decorates the binary codec. Encode runs on the simulator's
// goroutine, decode on the backend's socket readers, so the counters are
// atomics. It keeps the first sampleFrames encoded frames so decode
// allocations can be measured afterwards on one goroutine.
type timingCodec struct {
	inner                 netwire.BinaryCodec
	encN, encNs           atomic.Int64
	decN, decNs           atomic.Int64
	encTakenN, encTakenNs int64 // what takeEncode last returned up to
	sampled               atomic.Int64
	samples               [sampleFrames][]byte
}

const sampleFrames = 256

func (c *timingCodec) AppendEncode(dst []byte, payload any) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.AppendEncode(dst, payload)
	c.encNs.Add(int64(time.Since(start)))
	c.encN.Add(1)
	if err == nil {
		if i := c.sampled.Add(1) - 1; i < sampleFrames {
			// lint:alloc traced pass only: copies the first sampleFrames frames for the decode-allocation probe
			c.samples[i] = append([]byte(nil), out[len(dst):]...)
		}
	}
	return out, err
}

func (c *timingCodec) Decode(data []byte) (any, error) {
	start := time.Now()
	v, err := c.inner.Decode(data)
	c.decNs.Add(int64(time.Since(start)))
	c.decN.Add(1)
	return v, err
}

// takeEncode returns the encode count and time since the previous take.
func (c *timingCodec) takeEncode() (int64, time.Duration) {
	n, ns := c.encN.Load(), c.encNs.Load()
	dn, dns := n-c.encTakenN, ns-c.encTakenNs
	c.encTakenN, c.encTakenNs = n, ns
	return dn, time.Duration(dns)
}

func (c *timingCodec) decode() (int64, int64) { return c.decN.Load(), c.decNs.Load() }

// decodeAllocsPerFrame decodes the sampled frames on this goroutine with
// the collector quiet and returns mallocs per frame.
func (c *timingCodec) decodeAllocsPerFrame() float64 {
	n := int(c.sampled.Load())
	if n > sampleFrames {
		n = sampleFrames
	}
	if n == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := c.inner.Decode(c.samples[i]); err != nil {
			return -1
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
