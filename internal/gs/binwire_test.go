package gs

import (
	"encoding/hex"
	"reflect"
	"testing"

	"pvmigrate/internal/netwire"
	"pvmigrate/internal/wirefmt"
)

// Golden frames: the pinned byte-for-byte encodings of the fleet
// scheduler's two control payloads. A diff here is a wire ABI break —
// bump wirefmt.Version instead of updating the fixtures.
func TestGoldenWireBytes(t *testing.T) {
	beat := &ShardBeat{
		Shard: 1, Seq: 7, Base: 4, Full: true,
		Slots: []int{0, 2},
		Loads: []int{5, 3},
		Runq:  []int{1, 0},
		Flags: []byte{0x01, 0x03},
	}
	vec := &LoadVector{
		Shard: 2, Epoch: 9, Members: 32, Total: 100, MaxLoad: 9,
		MinLoad: 1, MinHost: 70, MinRunq: 0, MinRunqHost: 64,
	}
	cases := []struct {
		name string
		v    any
		want string
	}{
		// header: magic 5057, version 01, tag 80 LE, body len 16 LE;
		// body: zz(1) uv(7) zz(4) bool + three count+1 int arrays + flag
		// bytes.
		{"shardbeat", beat, "505701500010000000" +
			"02070801" + "030004" + "030a06" + "030200" + "030103"},
		// header: tag 81 LE, body len 12 LE; body: nine varint fields.
		{"loadvector", vec, "50570151000c000000" +
			"040940c8011202" + "8c0100" + "8001"},
	}
	for _, c := range cases {
		data, err := wirefmt.Append(nil, c.v)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if got := hex.EncodeToString(data); got != c.want {
			t.Errorf("%s: encoded bytes drifted (wire ABI change — bump wirefmt.Version):\n got %s\nwant %s", c.name, got, c.want)
		}
		raw, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatalf("%s: bad fixture: %v", c.name, err)
		}
		v, err := wirefmt.Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode fixture: %v", c.name, err)
		}
		if !reflect.DeepEqual(v, c.v) {
			t.Errorf("%s: decoded %#v, want %#v", c.name, v, c.v)
		}
	}
}

// A delta beat and a gossip vector cross the codec seam the transports
// call (netwire.WireCodec) and come back equal to what was sent.
func TestCodecDifferential(t *testing.T) {
	var codec netwire.WireCodec = netwire.BinaryCodec{}
	payloads := []any{
		&ShardBeat{Shard: 3, Seq: 12, Base: 96, Full: false,
			Slots: []int{1, 5, 30}, Loads: []int{4, 0, 2},
			Runq: []int{2, 1, 1}, Flags: []byte{1, 1, 3}},
		&LoadVector{Shard: 5, Epoch: 40, Members: 32, Total: 3000,
			MaxLoad: 200, MinLoad: 11, MinHost: 170, MinRunq: 1, MinRunqHost: 168},
	}
	for _, p := range payloads {
		data, err := codec.AppendEncode(nil, p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		v, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		if !reflect.DeepEqual(v, p) {
			t.Errorf("%T: round trip %#v, want %#v", p, v, p)
		}
	}
}

// TestReadIntoZeroAlloc pins the hot decode path: OpenFrame +
// readShardBeatInto into warm storage must not allocate.
func TestReadIntoZeroAlloc(t *testing.T) {
	src := &ShardBeat{
		Shard: 1, Seq: 3, Base: 32, Full: true,
		Slots: []int{0, 1, 2, 3}, Loads: []int{9, 1, 4, 4},
		Runq: []int{3, 0, 1, 2}, Flags: []byte{1, 1, 3, 1},
	}
	frame, err := wirefmt.Append(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := &ShardBeat{
		Slots: make([]int, 0, 8), Loads: make([]int, 0, 8),
		Runq: make([]int, 0, 8), Flags: make([]byte, 0, 8),
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, r, err := wirefmt.OpenFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := readShardBeatInto(&r, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hot beat decode allocates %.1f/op, want 0", allocs)
	}
	if !reflect.DeepEqual(dst, src) {
		t.Errorf("decoded %#v, want %#v", dst, src)
	}
	var lv LoadVector
	out := &LoadVector{Shard: 1, Epoch: 2, Members: 3}
	allocs = testing.AllocsPerRun(200, func() {
		vecFrame, err := wirefmt.Append(frame[:0], out)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := wirefmt.OpenFrame(vecFrame)
		if err != nil {
			t.Fatal(err)
		}
		if err := readLoadVectorInto(&r, &lv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hot vector encode+decode allocates %.1f/op, want 0", allocs)
	}
}
