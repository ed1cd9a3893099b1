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
		if got.Bytes() != orig.Bytes() || len(got.items) != len(orig.items) {
			t.Fatalf("decoded buffer charges %d bytes / %d items, original %d / %d",
				got.Bytes(), len(got.items), orig.Bytes(), len(orig.items))
		}
		return got
	}

	roundTrip(NewBuffer()) // zero-payload control message: 0 bytes, 0 items

	r := roundTrip(wireBufferFixture()).Reader()
	i, str, f, v, by, nested := r.UpkInt(), r.UpkString(), r.UpkFloat64s(), r.UpkVirtual(), r.UpkBytes(), r.UpkBuffer()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 7 || str != "hi" || !reflect.DeepEqual(f, []float64{1.5, -2}) || v != 64 ||
		!reflect.DeepEqual(by, []byte{0xde, 0xad}) {
		t.Fatalf("unpacked %d, %q, %v, %d, %v", i, str, f, v, by)
	}
	if want := NewBuffer().PkInt(1).Bytes(); nested.Bytes() != want {
		t.Fatalf("nested Bytes() = %d, want %d", nested.Bytes(), want)
	}
	if v := nested.Reader().UpkInt(); v != 1 {
		t.Fatalf("nested UpkInt = %d", v)
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

// A buffer item's kind byte names one of the six item kinds; any other
// value fails as wire.bad-value, even in a body that is otherwise whole
// (one item, then the byte count).
func TestDecodeRejectsUnknownItemKind(t *testing.T) {
	for _, kind := range []byte{byte(kindBuffer) + 1, 0xff} {
		frame := []byte{'P', 'W', wirefmt.Version, byte(tagBuffer), 0, 3, 0, 0, 0, 1, kind, 0}
		if v, err := wirefmt.Decode(frame); v != nil || !errs.Is(err, wirefmt.CodeBadValue) {
			t.Errorf("kind %d: decoded %#v, err %v; want %s", kind, v, err, wirefmt.CodeBadValue)
		}
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
