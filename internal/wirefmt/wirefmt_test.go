package wirefmt

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"pvmigrate/internal/errs"
)

// Golden frames for every built-in primitive, hand-computed from the spec
// in the package comment — not captured from the encoder — so they verify
// the implementation against the documented layout, and any byte-layout
// drift shows up as a test diff instead of a silent cross-version
// incompatibility.
func TestGoldenPrimitiveFrames(t *testing.T) {
	cases := []struct {
		name    string
		payload any
		hex     string
	}{
		{"nil", nil, "505701" + "0000" + "00000000"},
		{"bool-true", true, "505701" + "0100" + "01000000" + "01"},
		{"int-neg3", -3, "505701" + "0200" + "01000000" + "05"}, // zig-zag(-3) = 5
		{"int64-300", int64(300), "505701" + "0300" + "02000000" + "d804"},
		{"float64-1.5", 1.5, "505701" + "0400" + "08000000" + "000000000000f83f"},
		{"string-hi", "hi", "505701" + "0500" + "03000000" + "026869"},
		{"bytes", []byte{1, 2}, "505701" + "0600" + "03000000" + "030102"},
		{"bytes-nil", []byte(nil), "505701" + "0600" + "01000000" + "00"},
		{"bytes-empty", []byte{}, "505701" + "0600" + "01000000" + "01"},
		{"ints", []int{-1, 2}, "505701" + "0700" + "03000000" + "030104"},
		{"float64s", []float64{0.5}, "505701" + "0800" + "09000000" + "02" + "000000000000e03f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := Append(nil, c.payload)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(data); got != c.hex {
				t.Errorf("encoded bytes drifted:\n got %s\nwant %s", got, c.hex)
			}
			raw, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatalf("bad fixture: %v", err)
			}
			v, err := Decode(raw)
			if err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if !reflect.DeepEqual(v, c.payload) {
				t.Errorf("decoded %#v, want %#v", v, c.payload)
			}
		})
	}
}

// Nil and empty slices are distinct on the wire (count+1 prefix) and must
// stay distinct through a round trip.
func TestNilVersusEmptySlices(t *testing.T) {
	for _, payload := range []any{[]byte(nil), []byte{}, []int(nil), []int{}, []float64(nil), []float64{}} {
		data, err := Append(nil, payload)
		if err != nil {
			t.Fatalf("encode %#v: %v", payload, err)
		}
		v, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %#v: %v", payload, err)
		}
		if !reflect.DeepEqual(v, payload) {
			t.Errorf("round trip %#v -> %#v (nil-ness must survive)", payload, v)
		}
	}
}

// Every malformed-frame class maps to its structured error code; none may
// panic or allocate from a corrupt length claim.
func TestFrameErrors(t *testing.T) {
	valid, err := Append(nil, "hi")
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return fn(b)
	}
	cases := []struct {
		name string
		data []byte
		code errs.Code
	}{
		{"empty", nil, CodeTruncated},
		{"short-header", valid[:HeaderLen-1], CodeTruncated},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), CodeBadMagic},
		{"version-skew", mutate(func(b []byte) []byte { b[2] = Version + 1; return b }), CodeBadVersion},
		{"oversized-claim", mutate(func(b []byte) []byte { b[5], b[6], b[7], b[8] = 0xff, 0xff, 0xff, 0xff; return b }), CodeOversized},
		{"length-over", mutate(func(b []byte) []byte { b[5]++; return b }), CodeLengthClaim},
		{"length-under", mutate(func(b []byte) []byte { b[5]--; return b }), CodeLengthClaim},
		{"unknown-tag", mutate(func(b []byte) []byte { b[3], b[4] = 0xff, 0xff; return b }), CodeUnknownTag},
		{"trailing-bytes", func() []byte {
			// A one-byte bool body padded with a stray byte the body
			// decoder does not consume, header length made consistent.
			b, _ := Append(nil, true)
			b = append(b, 0)
			b[5]++
			return b
		}(), CodeTrailing},
		{"truncated-body", func() []byte {
			// String claims 200 bytes, frame carries 2.
			b := []byte{'P', 'W', Version, byte(TagString), 0, 3, 0, 0, 0, 200, 'h', 'i'}
			return b
		}(), CodeTruncated},
		{"corrupt-slice-count", func() []byte {
			// []float64 claiming 2^40 elements in a 6-byte body must fail
			// the claim check before sizing anything from it.
			body := AppendUvarint(nil, 1<<40)
			b := []byte{'P', 'W', Version, byte(TagFloat64s), 0, byte(len(body)), 0, 0, 0}
			return append(b, body...)
		}(), CodeTruncated},
		{"bad-bool", func() []byte {
			return []byte{'P', 'W', Version, byte(TagBool), 0, 1, 0, 0, 0, 7}
		}(), CodeBadValue},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := Decode(c.data)
			if err == nil {
				t.Fatalf("decoded %#v, want %s error", v, c.code)
			}
			if !errs.Is(err, c.code) {
				t.Errorf("error %v carries code %s, want %s", err, errs.CodeOf(err), c.code)
			}
		})
	}
}

// Encoding an unregistered type is a structured failure, not a panic —
// netsim surfaces it as the protocol bug it is. Registering a type with a
// nil encoder or decoder is the init-time programming error that would
// make it so, and panics there; the refused registration leaves the type
// unencodable.
func TestUnencodable(t *testing.T) {
	type stray struct{ X int }
	if _, err := Append(nil, stray{1}); !errs.Is(err, CodeUnencodable) {
		t.Fatalf("err = %v, want %s", err, CodeUnencodable)
	}
	if _, err := AppendAny(nil, stray{1}); !errs.Is(err, CodeUnencodable) {
		t.Fatalf("AppendAny err = %v, want %s", err, CodeUnencodable)
	}

	enc := func(dst []byte, v any) ([]byte, error) { return dst, nil }
	dec := func(r *Reader) any { return stray{} }
	for _, c := range []struct {
		name string
		enc  EncodeFunc
		dec  DecodeFunc
	}{
		{"nil-enc", nil, dec},
		{"nil-dec", enc, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Register with %s did not panic", c.name)
				}
			}()
			Register(0xfff0, "stray", stray{}, c.enc, c.dec)
		})
	}
	if _, err := Append(nil, stray{1}); !errs.Is(err, CodeUnencodable) {
		t.Fatalf("after refused registrations: err = %v, want %s", err, CodeUnencodable)
	}
}

// The steady-state encode path must not allocate once the destination
// buffer has capacity — this is the package-level half of the wire bench's
// allocs/op == 0 gate.
func TestAppendZeroAlloc(t *testing.T) {
	payloads := []any{true, 42, int64(-7), 3.14, "state-assumed", []byte{1, 2, 3}, []int{1, 2}, []float64{0.5, 2.5}}
	buf := make([]byte, 0, 4096)
	for _, p := range payloads {
		p := p
		allocs := testing.AllocsPerRun(100, func() {
			out, err := Append(buf[:0], p)
			if err != nil {
				t.Fatal(err)
			}
			_ = out
		})
		if allocs != 0 {
			t.Errorf("Append(%T) allocates %.1f/op on the steady-state path, want 0", p, allocs)
		}
	}
}

// A decode allocates only the value it returns: its cursor is pooled, so a
// frame whose value needs no storage (nil, a bool, a small int) decodes at
// zero allocations.
func TestDecodeZeroAlloc(t *testing.T) {
	for _, p := range []any{nil, true, 42} {
		data, err := Append(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if v, err := Decode(data); err != nil || v != p {
				t.Fatalf("Decode = %v, %v; want %v", v, err, p)
			}
		})
		if allocs != 0 {
			t.Errorf("Decode(%T) allocates %.1f/op, want 0", p, allocs)
		}
	}
}

// Decodes on several goroutines at once (concurrent kernels under
// sweep.Map) share only the cursor pool, and no result aliases its frame:
// each goroutine overwrites its frame after every decode and the value it
// kept must not change. Run under -race.
func TestDecodeConcurrentOwnsResults(t *testing.T) {
	const workers, rounds = 4, 500
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			want := []any{[]byte{byte(w), 1, 2, 3}, "kept-" + string(rune('a'+w)), []int{w, -w}, []float64{float64(w)}}
			for i := 0; i < rounds; i++ {
				p := want[i%len(want)]
				data, err := Append(nil, p)
				if err != nil {
					errc <- err
					return
				}
				v, err := Decode(data)
				if err != nil {
					errc <- err
					return
				}
				for j := range data {
					data[j] = 0xff
				}
				if !reflect.DeepEqual(v, p) {
					errc <- fmt.Errorf("worker %d round %d: decoded %#v, want %#v", w, i, v, p)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
