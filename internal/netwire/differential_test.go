package netwire_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/sweep"
)

// randLen is a slice length in [0, max] that is zero a quarter of the time,
// so empty-but-non-nil slices are a routine part of the population: the
// codec must keep them distinct from nil end to end.
func randLen(r *rand.Rand, max int) int {
	if r.Intn(4) == 0 {
		return 0
	}
	return 1 + r.Intn(max)
}

func randString(r *rand.Rand, prefix string) string {
	if r.Intn(4) == 0 {
		return ""
	}
	return fmt.Sprintf("%s%x", prefix, r.Uint64())
}

func randFloats(r *rand.Rand, max int) []float64 {
	fs := make([]float64, randLen(r, max))
	for j := range fs {
		fs[j] = r.NormFloat64()
	}
	return fs
}

func randBytes(r *rand.Rand, max int) []byte {
	bs := make([]byte, randLen(r, max))
	r.Read(bs)
	return bs
}

// randBuffer packs a random mix of every item kind, including no items at
// all.
func randBuffer(r *rand.Rand, depth int) *core.Buffer {
	b := core.NewBuffer()
	for i, n := 0, r.Intn(6); i < n; i++ {
		switch k := r.Intn(6); {
		case k == 0:
			b.PkInt(r.Int() - r.Int())
		case k == 1:
			b.PkFloat64s(randFloats(r, 4))
		case k == 2:
			b.PkBytes(randBytes(r, 32))
		case k == 3:
			b.PkString(randString(r, "s"))
		case k == 4:
			b.PkVirtual(r.Intn(1 << 20))
		case k == 5 && depth < 3:
			b.PkBuffer(randBuffer(r, depth+1))
		default:
			b.PkInt(r.Intn(1000))
		}
	}
	return b
}

// randPayload draws from every payload shape the transports carry.
func randPayload(r *rand.Rand) any {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 1
	case 2:
		return r.Int() - r.Int()
	case 3:
		return r.Int63() - r.Int63()
	case 4:
		return r.NormFloat64()
	case 5:
		return randString(r, "payload-")
	case 6:
		return randBytes(r, 256)
	case 7:
		is := make([]int, randLen(r, 64))
		for j := range is {
			is[j] = r.Int() - r.Int()
		}
		return is
	case 8:
		return randFloats(r, 64)
	default:
		return randBuffer(r, 0)
	}
}

// Randomized round-trip sweep: every payload of a large randomized
// population must decode to exactly the value that was encoded — nil and
// empty slices kept apart — reusing the sweep harness so the population is
// deterministic per seed and generated in parallel.
func TestCodecDifferentialRandomized(t *testing.T) {
	failures := sweep.Seeds(16, 4, func(seed uint64) string {
		r := rand.New(rand.NewSource(int64(seed)))
		c := netwire.BinaryCodec{}
		for i := 0; i < 64; i++ {
			p := randPayload(r)
			data, err := c.AppendEncode(nil, p)
			if err != nil {
				return fmt.Sprintf("seed %d payload %d (%T): encode: %v", seed, i, p, err)
			}
			v, err := c.Decode(data)
			if err != nil {
				return fmt.Sprintf("seed %d payload %d (%T): decode: %v", seed, i, p, err)
			}
			if !reflect.DeepEqual(v, p) {
				return fmt.Sprintf("seed %d payload %d (%T): round trip %#v != original %#v", seed, i, p, v, p)
			}
		}
		return ""
	})
	for _, f := range failures {
		if f != "" {
			t.Error(f)
		}
	}
}

// The default codec's steady-state encode path must not allocate once the
// pooled buffer has grown to the working set — this is what lets SendDgram
// and stream.Send reuse one scratch buffer with zero garbage per frame.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	c := netwire.BinaryCodec{}
	loadvec := make([]float64, 64)
	for i := range loadvec {
		loadvec[i] = float64(i) * 0.25
	}
	payloads := []any{
		"state-assumed",
		42,
		loadvec,
		core.NewBuffer().PkInt(7).PkString("status").PkFloat64s(loadvec).PkBytes(make([]byte, 1024)),
	}
	scratch := make([]byte, 0, 1<<16)
	for _, p := range payloads {
		p := p
		allocs := testing.AllocsPerRun(200, func() {
			out, err := c.AppendEncode(scratch[:0], p)
			if err != nil {
				t.Fatal(err)
			}
			scratch = out[:0]
		})
		if allocs != 0 {
			t.Errorf("AppendEncode(%T) allocates %.1f/op steady-state, want 0", p, allocs)
		}
	}
}
