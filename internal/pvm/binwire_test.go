package pvm

import (
	"encoding/hex"
	"reflect"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/wirefmt"
)

// pvmWireFixtures is one representative value per pvm protocol type — the
// complete inventory of what pvmd sends across hosts.
func pvmWireFixtures() []struct {
	name    string
	payload any
	hex     string
} {
	buf := core.NewBuffer().PkInt(7).PkString("hi")
	return []struct {
		name    string
		payload any
		hex     string
	}{
		{"message", &Message{
			Src: core.MakeTID(0, 1), Dst: core.MakeTID(1, 1), Tag: 9,
			Buf: buf, SentAt: sim.FromSeconds(2), Hops: 1,
		}, "5057012000170000008280208280401280d0acf30e02100002000e0302686914"},
		{"ctlmsg-kill", &CtlMsg{Kind: "kill", From: core.MakeTID(0, 1), Payload: core.MakeTID(1, 2)}, "50570121000d000000046b696c6c8280201100848040"},
	}
}

// The frames of the four retired wire types (tags 34–37), as an older peer
// would still emit them. They are pinned as negative fixtures: the tags are
// retired, not reused, so each must decode to a wire.unknown-tag error.
var retiredFrames = []struct{ name, hex string }{
	{"spawn-req", "5057012200090000000e06776f726b657202"},
	{"spawn-reply", "5057012300110000000e8480400c6e6f207375636820686f7374"},
	{"group-req", "50570124001300000006046a6f696e07776f726b6572738280200004"},
	{"group-reply", "50570125000b0000000602040382802082804000"},
}

func TestRetiredTagsStayUnknown(t *testing.T) {
	for _, c := range retiredFrames {
		t.Run(c.name, func(t *testing.T) {
			raw, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatalf("bad fixture: %v", err)
			}
			v, err := wirefmt.Decode(raw)
			if !errs.Is(err, wirefmt.CodeUnknownTag) {
				t.Fatalf("decoded %#v, err %v; want %s", v, err, wirefmt.CodeUnknownTag)
			}
		})
	}
}

// Golden frames: the pinned byte-for-byte encoding of every pvm protocol
// message. A diff here is a wire ABI break — bump wirefmt.Version instead
// of updating the fixture.
func TestGoldenWireBytes(t *testing.T) {
	for _, c := range pvmWireFixtures() {
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

// Every pvm protocol value crosses the codec seam the transports call
// (netwire.WireCodec) and comes back equal to what was sent.
func TestCodecDifferential(t *testing.T) {
	var codec netwire.WireCodec = netwire.BinaryCodec{}
	for _, c := range pvmWireFixtures() {
		t.Run(c.name, func(t *testing.T) {
			data, err := codec.AppendEncode(nil, c.payload)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			v, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(v, c.payload) {
				t.Errorf("round trip %#v, want %#v", v, c.payload)
			}
		})
	}
}
