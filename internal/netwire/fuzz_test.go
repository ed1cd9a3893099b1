package netwire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/wirefmt"

	// Blank imports pull in every protocol package's wirefmt registrations,
	// so the fuzzer exercises the real struct decoders (nested buffers,
	// TID payloads, member lists), not just the primitives.
	_ "pvmigrate/internal/ft"
	_ "pvmigrate/internal/mpvm"
	_ "pvmigrate/internal/pvm"
)

// Seed corpus: the pinned golden frames from each protocol package's
// TestGoldenWireBytes — one valid frame per message type, so the fuzzer
// starts from deep inside every registered decoder instead of having to
// discover the header by brute force.
var goldenFrameSeeds = []string{
	// core
	"50570110002900000006000e030268690103000000000000f83f00000000000000c00480010203dead05100001000208d801",
	"505701110003000000848040",
	// pvm
	"5057012000170000008280208280401280d0acf30e02100002000e0302686914",
	"50570121000d000000046b696c6c8280201100848040",
	// mpvm
	"50570131000400000084802000",
	"50570132000400000084802002",
	"50570133000f0000001684802005736c6176650080808001",
	"50570134000400000016d28c01",
	"505701350009000000848020848020868040",
	"505701350009000000848020868040888060",
	"5057013800080000008480200680800800",
	"5057013900120000008480200209686967682d6c6f616484802000",
	"5057013900120000008680400009686967682d6c6f616484802000",
	// ft
	"50570140000100000006",
}

// TestSeedsCoverRegisteredTags holds the seed corpus to the live registry:
// the tags the protocol packages register are exactly the seeds' tags,
// every seed decodes, and every seed re-encodes to its own bytes. A new
// wirefmt.Register without a seed fails here, and so does a seed left
// behind by a retired tag.
func TestSeedsCoverRegisteredTags(t *testing.T) {
	// A tag is registered when an empty-body frame carrying it decodes to
	// anything but a wire.unknown-tag error. Tags below 16 are wirefmt's
	// built-in primitives, not registrations.
	registered := make(map[int]bool)
	for tag := 16; tag < 1<<16; tag++ {
		hdr := []byte{'P', 'W', wirefmt.Version, byte(tag), byte(tag >> 8), 0, 0, 0, 0}
		if _, err := wirefmt.Decode(hdr); !errs.Is(err, wirefmt.CodeUnknownTag) {
			registered[tag] = true
		}
	}
	c := netwire.BinaryCodec{}
	seeded := make(map[int]bool)
	for _, h := range goldenFrameSeeds {
		raw, err := hex.DecodeString(h)
		if err != nil || len(raw) < wirefmt.HeaderLen {
			t.Fatalf("bad seed %q: %v", h, err)
		}
		tag := int(raw[3]) | int(raw[4])<<8
		seeded[tag] = true
		v, err := c.Decode(raw)
		if err != nil {
			t.Errorf("seed for tag %d does not decode: %v", tag, err)
			continue
		}
		re, err := c.AppendEncode(nil, v)
		if err != nil || !bytes.Equal(re, raw) {
			t.Errorf("seed for tag %d re-encodes to %x (err %v), want %x", tag, re, err, raw)
		}
	}
	for tag := range registered {
		if !seeded[tag] {
			t.Errorf("wire tag %d is registered but has no seed in goldenFrameSeeds", tag)
		}
	}
}

// TestDecodeRejectsTruncatedSeeds cuts every seed's body at each strict
// prefix and rewrites the header to claim that length: whichever field the
// cut lands in, the frame fails as wire.truncated and yields no value.
func TestDecodeRejectsTruncatedSeeds(t *testing.T) {
	for _, h := range goldenFrameSeeds {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("bad seed %q: %v", h, err)
		}
		for n := wirefmt.HeaderLen; n < len(raw); n++ {
			frame := append([]byte(nil), raw[:n]...)
			binary.LittleEndian.PutUint32(frame[5:], uint32(n-wirefmt.HeaderLen))
			if v, err := wirefmt.Decode(frame); v != nil || !errs.Is(err, wirefmt.CodeTruncated) {
				t.Errorf("seed %s cut to %d body bytes: decoded %#v, err %v; want %s",
					h, n-wirefmt.HeaderLen, v, err, wirefmt.CodeTruncated)
			}
		}
	}
}

// FuzzWireFrameDecode drives arbitrary bytes through the default codec's
// decode path with all protocol types registered — the exact code an
// attacker-controlled socket peer would reach. Decode must fail with a
// structured wire error or produce a value that round-trips; it must never
// panic.
func FuzzWireFrameDecode(f *testing.F) {
	for _, h := range goldenFrameSeeds {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatalf("bad seed %q: %v", h, err)
		}
		f.Add(b)
	}
	c := netwire.BinaryCodec{}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := c.Decode(data)
		if err != nil {
			if !strings.HasPrefix(string(errs.CodeOf(err)), "wire.") {
				t.Fatalf("decode error is not wire-coded: %v (code %s)", err, errs.CodeOf(err))
			}
			return
		}
		re, err := c.AppendEncode(nil, v)
		if err != nil {
			t.Fatalf("accepted value %#v does not re-encode: %v", v, err)
		}
		v2, err := c.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// Compare the canonical re-encodings, not the values: DeepEqual
		// rejects NaN == NaN, but the format preserves NaN payload bits
		// exactly, which byte equality captures.
		re2, err := c.AppendEncode(nil, v2)
		if err != nil {
			t.Fatalf("second re-encode of %#v: %v", v2, err)
		}
		if !reflect.DeepEqual(re, re2) {
			t.Fatalf("round trip drift:\n%x ->\n%x", re, re2)
		}
	})
}
