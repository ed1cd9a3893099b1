package netwire_test

import (
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/netwire"
)

// The wire codec's performance contract: the encode path runs at zero
// steady-state allocations into a pooled buffer (the transports reuse one
// scratch across frames). TestBinaryEncodeZeroAlloc is the gate; these
// benchmarks are the numbers. (The frozen comparison against the retired
// gob codec is in DESIGN.md §7b.)

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
