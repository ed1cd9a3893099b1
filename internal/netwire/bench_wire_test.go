package netwire_test

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/netwire"
)

// The wire codec's performance contract: the encode path runs at zero
// steady-state allocations into a pooled buffer (the transports reuse one
// scratch across frames). BenchmarkWireBaseline snapshots the codec into
// BENCH_WIRE.json and *fails* if the encoder allocates — the gate CI runs
// on every push. (The frozen comparison against the retired gob codec is
// in DESIGN.md §7b.)

// benchPayloads is the payload population: the shapes the protocols
// actually put on the wire, from a heartbeat-sized int to a ~1KB message
// buffer.
func benchPayloads() []struct {
	name    string
	payload any
} {
	// Load averages are noisy measurements, not round numbers: fill the
	// vector from an LCG so the mantissas carry full entropy.
	loadvec := make([]float64, 64)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range loadvec {
		x = x*6364136223846793005 + 1442695040888963407
		loadvec[i] = float64(x%4000) / 1000.0 * (1 + 1e-12*float64(x>>32))
	}
	state := make([]byte, 1024)
	for i := range state {
		state[i] = byte(i * 131)
	}
	return []struct {
		name    string
		payload any
	}{
		{"int", 42},
		{"ctl-string", "state-assumed"},
		{"loadvec-64", loadvec},
		{"buffer-1k", core.NewBuffer().PkInt(7).PkString("status").PkFloat64s(loadvec).PkBytes(state)},
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	c := netwire.BinaryCodec{}
	for _, p := range benchPayloads() {
		b.Run(p.name, func(b *testing.B) {
			scratch := make([]byte, 0, 1<<16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := c.AppendEncode(scratch[:0], p.payload)
				if err != nil {
					b.Fatal(err)
				}
				scratch = out[:0]
			}
		})
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	c := netwire.BinaryCodec{}
	for _, p := range benchPayloads() {
		frame, err := c.AppendEncode(nil, p.payload)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- baseline snapshot -------------------------------------------------------

type codecStat struct {
	BytesPerFrame  int     `json:"bytes_per_frame"`
	EncodeNsPerOp  float64 `json:"encode_ns_per_op"`
	EncodeAllocs   int64   `json:"encode_allocs_per_op"`
	DecodeNsPerOp  float64 `json:"decode_ns_per_op"`
	DecodeAllocs   int64   `json:"decode_allocs_per_op"`
	EncodeMBPerSec float64 `json:"encode_mb_per_sec"`
}

type payloadBaseline struct {
	Payload string    `json:"payload"`
	Binary  codecStat `json:"binary"`
}

type wireBaseline struct {
	GoMaxProcs int               `json:"go_max_procs"`
	Payloads   []payloadBaseline `json:"payloads"`
}

// measureLoop times n iterations of fn with malloc counts bracketing the
// run. Hand-rolled rather than testing.Benchmark because the latter takes
// the testing package's global benchmark lock and deadlocks when invoked
// from inside a running benchmark (same constraint as BenchmarkKernelBaseline).
func measureLoop(n int, fn func() error) (nsPerOp float64, allocsPerOp int64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(dur.Nanoseconds()) / float64(n), int64(m1.Mallocs-m0.Mallocs) / int64(n), nil
}

func measureCodec(b *testing.B, payload any, n int) codecStat {
	c := netwire.BinaryCodec{}
	frame, err := c.AppendEncode(nil, payload)
	if err != nil {
		b.Fatalf("encode %T: %v", payload, err)
	}
	scratch := make([]byte, 0, 1<<16)
	// Warm the pooled buffer before the measured window, exactly as the
	// transports do: steady state means capacity has already grown.
	if out, err := c.AppendEncode(scratch[:0], payload); err == nil {
		scratch = out[:0]
	}
	encNs, encAllocs, err := measureLoop(n, func() error {
		out, err := c.AppendEncode(scratch[:0], payload)
		scratch = out[:0]
		return err
	})
	if err != nil {
		b.Fatalf("encode loop %T: %v", payload, err)
	}
	decNs, decAllocs, err := measureLoop(n, func() error {
		_, err := c.Decode(frame)
		return err
	})
	if err != nil {
		b.Fatalf("decode loop %T: %v", payload, err)
	}
	return codecStat{
		BytesPerFrame:  len(frame),
		EncodeNsPerOp:  encNs,
		EncodeAllocs:   encAllocs,
		DecodeNsPerOp:  decNs,
		DecodeAllocs:   decAllocs,
		EncodeMBPerSec: float64(len(frame)) / encNs * 1e9 / (1 << 20),
	}
}

var wireBaselineOnce sync.Once

// BenchmarkWireBaseline measures the codec over the payload population
// and writes the snapshot to BENCH_WIRE.json (or $BENCH_WIRE_OUT). It is
// also the enforcement point for the codec's headline claim: the encoder
// performs zero steady-state allocations. CI runs it via
// `go test -bench=WireBaseline -benchtime=1x ./internal/netwire` and
// uploads the file; the committed repo-root BENCH_WIRE.json is the
// long-form baseline.
func BenchmarkWireBaseline(b *testing.B) {
	wireBaselineOnce.Do(func() {
		const n = 200_000
		base := wireBaseline{GoMaxProcs: runtime.GOMAXPROCS(0)}
		for _, p := range benchPayloads() {
			pb := payloadBaseline{
				Payload: p.name,
				Binary:  measureCodec(b, p.payload, n),
			}
			if pb.Binary.EncodeAllocs != 0 {
				b.Fatalf("payload %s: binary encode allocates %d/op steady-state, want 0", p.name, pb.Binary.EncodeAllocs)
			}
			base.Payloads = append(base.Payloads, pb)
		}
		out := os.Getenv("BENCH_WIRE_OUT")
		if out == "" {
			out = "BENCH_WIRE.json"
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatalf("marshal baseline: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatalf("write %s: %v", out, err)
		}
		b.Logf("wire baseline written to %s: %s", out, data)
	})
}
