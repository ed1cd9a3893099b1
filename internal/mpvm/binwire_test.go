package mpvm

import (
	"encoding/hex"
	"reflect"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/netwire"
	"pvmigrate/internal/wirefmt"
)

// mpvmWireFixtures is one representative value per mpvm protocol type —
// the complete inventory of the migration protocol's cross-host messages.
func mpvmWireFixtures() []struct {
	name    string
	payload any
	hex     string
} {
	vp := core.MakeTID(0, 2)
	return []struct {
		name    string
		payload any
		hex     string
	}{
		{"migrate-cmd", &migrateCmd{
			order: core.MigrationOrder{VP: vp, Dest: 1, Reason: core.ReasonHighLoad},
			orig:  vp,
		}, "5057013000110000008480200209686967682d6c6f6164848020"},
		{"flush-cmd", &flushCmd{orig: vp, srcHost: 0}, "50570131000400000084802000"},
		{"flush-ack", &flushAck{orig: vp, host: 1}, "50570132000400000084802002"},
		{"skeleton-req", &skeletonReq{rpc: 11, orig: vp, name: "slave", srcHost: 0, bytes: 1 << 20}, "50570133000f0000001684802005736c6176650080808001"},
		{"skeleton-ready", &skeletonReady{rpc: 11, port: 9001}, "50570134000400000016d28c01"},
		{"restart-cmd", &restartCmd{orig: vp, oldTID: vp, newTID: core.MakeTID(1, 3)}, "505701350009000000848020848020868040"},
		{"state-header", &stateHeader{orig: vp, total: 1 << 20}, "50570136000700000084802080808001"},
		{"warm-migrate-cmd", &warmMigrateCmd{
			order: core.MigrationOrder{VP: vp, Dest: 1, Reason: core.ReasonOwnerReclaim},
			orig:  vp, maxRounds: 8, cutoverBytes: 64 << 10,
		}, "505701370019000000848020020d6f776e65722d7265636c61696d84802010808008"},
		{"round-header", &roundHeader{orig: vp, round: 3, bytes: 64 << 10, final: false}, "5057013800080000008480200680800800"},
	}
}

// Golden frames: the pinned byte-for-byte encoding of every mpvm protocol
// message. A diff here is a wire ABI break — bump wirefmt.Version instead
// of updating the fixture.
func TestGoldenWireBytes(t *testing.T) {
	for _, c := range mpvmWireFixtures() {
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

// Every mpvm protocol value crosses the codec seam the transports call
// (netwire.WireCodec) and comes back equal to what was sent.
func TestCodecDifferential(t *testing.T) {
	var codec netwire.WireCodec = netwire.BinaryCodec{}
	for _, c := range mpvmWireFixtures() {
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
