package wirefmt

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"pvmigrate/internal/errs"
)

// FuzzFrameDecode drives arbitrary bytes through the frame decoder. Two
// invariants, checked on every input: a failed decode is a structured
// "wire."-namespaced error (never a panic — corrupt length claims must be
// rejected before any allocation is sized from them), and a successful
// decode re-encodes and re-decodes to the same value (the format is
// round-trip stable for everything the decoder accepts).
func FuzzFrameDecode(f *testing.F) {
	for _, payload := range []any{
		nil, true, -3, int64(300), 1.5, "hi",
		[]byte{1, 2}, []byte{}, []int{-1, 2}, []float64{0.5},
	} {
		frame, err := Append(nil, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// Corrupt variants steer the fuzzer toward each header check.
		for _, mut := range []func(b []byte){
			func(b []byte) { b[0] = 'X' },         // bad magic
			func(b []byte) { b[2] = Version + 1 }, // version skew
			func(b []byte) { b[3] = 0xff },        // unknown tag
			func(b []byte) { b[5] ^= 0xff },       // length lies
		} {
			c := append([]byte(nil), frame...)
			mut(c)
			f.Add(c)
		}
		f.Add(frame[:len(frame)-1]) // truncated
	}
	// Well-formed frames of pvm's retired tags 34–37, as an older peer
	// would still send them (pvm.TestRetiredTagsStayUnknown pins the
	// verdict; here they seed structured bodies behind an unknown tag).
	for _, h := range []string{
		"5057012200090000000e06776f726b657202",
		"5057012300110000000e8480400c6e6f207375636820686f7374",
		"50570124001300000006046a6f696e07776f726b6572738280200004",
		"50570125000b0000000602040382802082804000",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			if !strings.HasPrefix(string(errs.CodeOf(err)), "wire.") {
				t.Fatalf("decode error is not wire-coded: %v (code %s)", err, errs.CodeOf(err))
			}
			return
		}
		re, err := Append(nil, v)
		if err != nil {
			t.Fatalf("accepted value %#v does not re-encode: %v", v, err)
		}
		v2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// Compare the canonical re-encodings, not the values: DeepEqual
		// rejects NaN == NaN, but the format preserves NaN payload bits
		// exactly, which byte equality captures.
		re2, err := Append(nil, v2)
		if err != nil {
			t.Fatalf("second re-encode of %#v: %v", v2, err)
		}
		if !reflect.DeepEqual(re, re2) {
			t.Fatalf("round trip drift:\n%x ->\n%x", re, re2)
		}
	})
}
