package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/wirefmt"
)

// wireBufferFixture exercises every item kind, including a nested buffer.
func wireBufferFixture() *Buffer {
	return NewBuffer().
		PkInt(7).
		PkString("hi").
		PkFloat64s([]float64{1.5, -2}).
		PkVirtual(64).
		PkBytes([]byte{0xde, 0xad}).
		PkBuffer(NewBuffer().PkInt(1))
}

// Golden frames: the pinned byte-for-byte encoding of core's wire types.
// These hex strings are wire ABI — if this test diffs, the change breaks
// cross-version interop and requires a wirefmt.Version bump, not a fixture
// update.
func TestGoldenWireBytes(t *testing.T) {
	cases := []struct {
		name    string
		payload any
		hex     string
	}{
		{"buffer", wireBufferFixture(), "50570110002900000006000e030268690103000000000000f83f00000000000000c00480010203dead05100001000208d801"},
		{"tid", MakeTID(1, 2), "505701110003000000848040"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := wirefmt.Append(nil, c.payload)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got := hex.EncodeToString(data); got != c.hex {
				t.Errorf("encoded bytes drifted (wire ABI change — bump wirefmt.Version):\n got %s\nwant %s", got, c.hex)
			}
			raw, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatalf("bad fixture: %v", err)
			}
			v, err := wirefmt.Decode(raw)
			if err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if !reflect.DeepEqual(v, c.payload) {
				t.Errorf("decoded %#v, want %#v", v, c.payload)
			}
		})
	}
}

// A decoded buffer must charge exactly the bytes the original did — pack
// time and wire time are functions of Bytes() — and hand every item kind
// back through the Upk API, nested buffers and empty buffers (zero-payload
// control messages) included.
func TestWireBufferPreservesAccounting(t *testing.T) {
	roundTrip := func(orig *Buffer) *Buffer {
		t.Helper()
		data, err := wirefmt.Append(nil, orig)
		if err != nil {
			t.Fatal(err)
		}
		v, err := wirefmt.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*Buffer)
		if got.Bytes() != orig.Bytes() || got.Items() != orig.Items() {
			t.Fatalf("decoded buffer charges %d bytes / %d items, original %d / %d",
				got.Bytes(), got.Items(), orig.Bytes(), orig.Items())
		}
		return got
	}

	roundTrip(NewBuffer()) // zero-payload control message: 0 bytes, 0 items

	r := roundTrip(wireBufferFixture()).Reader()
	if v, err := r.UpkInt(); err != nil || v != 7 {
		t.Fatalf("UpkInt = %d, %v", v, err)
	}
	if v, err := r.UpkString(); err != nil || v != "hi" {
		t.Fatalf("UpkString = %q, %v", v, err)
	}
	if v, err := r.UpkFloat64s(); err != nil || !reflect.DeepEqual(v, []float64{1.5, -2}) {
		t.Fatalf("UpkFloat64s = %v, %v", v, err)
	}
	if v, err := r.UpkVirtual(); err != nil || v != 64 {
		t.Fatalf("UpkVirtual = %d, %v", v, err)
	}
	if v, err := r.UpkBytes(); err != nil || !reflect.DeepEqual(v, []byte{0xde, 0xad}) {
		t.Fatalf("UpkBytes = %v, %v", v, err)
	}
	nested, err := r.UpkBuffer()
	if err != nil {
		t.Fatalf("UpkBuffer: %v", err)
	}
	if want := NewBuffer().PkInt(1).Bytes(); nested.Bytes() != want {
		t.Fatalf("nested Bytes() = %d, want %d", nested.Bytes(), want)
	}
	if v, err := nested.Reader().UpkInt(); err != nil || v != 1 {
		t.Fatalf("nested UpkInt = %d, %v", v, err)
	}
}

// Nesting beyond wirefmt's depth cap is a structured decode error, not a
// stack overflow: adversarial input cannot recurse the decoder to death.
func TestWireBufferDepthCap(t *testing.T) {
	b := NewBuffer().PkInt(1)
	for i := 0; i < 80; i++ { // > wirefmt maxDepth (64)
		b = NewBuffer().PkBuffer(b)
	}
	data, err := wirefmt.Append(nil, b)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := wirefmt.Decode(data); !errs.Is(err, wirefmt.CodeDepth) {
		t.Fatalf("decode 80-deep nesting: err = %v, want %s", err, wirefmt.CodeDepth)
	}
}

// Encoding a typed-nil *Buffer is a protocol bug surfaced as an error (nil
// payloads travel as TagNil), and truncated buffer bodies fail structurally.
func TestWireBufferErrors(t *testing.T) {
	if _, err := wirefmt.Append(nil, (*Buffer)(nil)); !errs.Is(err, wirefmt.CodeBadValue) {
		t.Fatalf("typed-nil encode: err = %v, want %s", err, wirefmt.CodeBadValue)
	}
	data, err := wirefmt.Append(nil, wireBufferFixture())
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-4; cut-- {
		trunc := append([]byte(nil), data[:cut]...)
		if _, err := wirefmt.Decode(trunc); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded, want error", cut, len(data))
		}
	}
}
