package ft

import (
	"encoding/hex"
	"reflect"
	"testing"

	"pvmigrate/internal/netwire"
	"pvmigrate/internal/wirefmt"
)

// Golden frame: the pinned byte-for-byte encoding of a heartbeat — the one
// message ft sends across hosts, and the one that must stay a handful of
// bytes for decentralized dissemination to be cheap. A diff here is a wire
// ABI break — bump wirefmt.Version instead of updating the fixture.
func TestGoldenWireBytes(t *testing.T) {
	const want = "505701400001000000" + "06" // header tag 64, body zig-zag(3)
	data, err := wirefmt.Append(nil, beat{host: 3})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if got := hex.EncodeToString(data); got != want {
		t.Errorf("encoded bytes drifted (wire ABI change — bump wirefmt.Version):\n got %s\nwant %s", got, want)
	}
	raw, err := hex.DecodeString(want)
	if err != nil {
		t.Fatalf("bad fixture: %v", err)
	}
	v, err := wirefmt.Decode(raw)
	if err != nil {
		t.Fatalf("decode fixture: %v", err)
	}
	if !reflect.DeepEqual(v, beat{host: 3}) {
		t.Errorf("decoded %#v, want beat{host: 3}", v)
	}
}

// A heartbeat crosses the codec seam the transports call
// (netwire.WireCodec) and comes back equal to what was sent.
func TestCodecDifferential(t *testing.T) {
	var codec netwire.WireCodec = netwire.BinaryCodec{}
	b := beat{host: 3}
	data, err := codec.AppendEncode(nil, b)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	v, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(v, b) {
		t.Errorf("round trip %#v, want %#v", v, b)
	}
}
