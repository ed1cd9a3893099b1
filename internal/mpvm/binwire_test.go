package mpvm

import (
	"encoding/hex"
	"reflect"
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
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
		}, "5057013900120000008480200209686967682d6c6f616484802000"},
		{"warm-migrate-cmd", &migrateCmd{
			order: core.MigrationOrder{VP: vp, Dest: 1, Reason: core.ReasonOwnerReclaim},
			orig:  vp, warm: true,
		}, "505701390016000000848020020d6f776e65722d7265636c61696d84802001"},
		// A migrated VP's order names its current TID, not its original
		// one: the two TID fields differ, so swapping them fails here.
		{"migrate-cmd-moved-vp", &migrateCmd{
			order: core.MigrationOrder{VP: core.MakeTID(1, 3), Dest: 0, Reason: core.ReasonHighLoad},
			orig:  vp,
		}, "5057013900120000008680400009686967682d6c6f616484802000"},
		{"flush-cmd", &flushCmd{orig: vp, srcHost: 0}, "50570131000400000084802000"},
		{"flush-ack", &flushAck{orig: vp, host: 1}, "50570132000400000084802002"},
		{"skeleton-req", &skeletonReq{rpc: 11, orig: vp, name: "slave", srcHost: 0, bytes: 1 << 20}, "50570133000f0000001684802005736c6176650080808001"},
		{"skeleton-ready", &skeletonReady{rpc: 11, port: 9001}, "50570134000400000016d28c01"},
		{"restart-cmd", &restartCmd{orig: vp, oldTID: vp, newTID: core.MakeTID(1, 3)}, "505701350009000000848020848020868040"},
		// A second migration: orig, oldTID and newTID all differ.
		{"restart-cmd-second-move", &restartCmd{orig: vp, oldTID: core.MakeTID(1, 3), newTID: core.MakeTID(2, 4)}, "505701350009000000848020868040888060"},
		{"round-header", &roundHeader{orig: vp, round: 3, bytes: 64 << 10, final: false}, "5057013800080000008480200680800800"},
		{"final-round-header", &roundHeader{orig: vp, round: 0, bytes: 1 << 20, final: true}, "505701380009000000848020008080800101"},
	}
}

// retiredFrames are the frames of the retired tags, as an older peer would
// still emit them: 48, the stop-and-copy-only migrateCmd; 54, stateHeader,
// the stop-and-copy stream header; and 55, warmMigrateCmd. Both modes now
// send migrateCmd (tag 57) and stream roundHeaders. A retired tag is never
// reused, so each must decode to a wire.unknown-tag error instead of as
// something else.
var retiredFrames = []struct{ name, hex string }{
	{"migrate-cmd-48", "5057013000110000008480200209686967682d6c6f6164848020"},
	{"state-header-54", "50570136000700000084802080808001"},
	{"warm-migrate-cmd-55", "505701370019000000848020020d6f776e65722d7265636c61696d84802010808008"},
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

// A bool field is one byte that must be 0 or 1: the final-round flag and
// the warm flag, both their frames' last byte, fail as wire.bad-value on 2.
func TestDecodeRejectsBadBool(t *testing.T) {
	checked := 0
	for _, c := range mpvmWireFixtures() {
		if c.name != "final-round-header" && c.name != "warm-migrate-cmd" {
			continue
		}
		checked++
		raw, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatalf("bad fixture: %v", err)
		}
		raw[len(raw)-1] = 2
		if v, err := wirefmt.Decode(raw); v != nil || !errs.Is(err, wirefmt.CodeBadValue) {
			t.Errorf("%s with a bool byte of 2: decoded %#v, err %v; want %s", c.name, v, err, wirefmt.CodeBadValue)
		}
	}
	if checked != 2 {
		t.Fatalf("checked %d fixtures, want 2", checked)
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
