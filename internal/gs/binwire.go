package gs

import (
	"pvmigrate/internal/errs"
	"pvmigrate/internal/wirefmt"
)

// gs owns wire tags 80–95. Two payloads carry the fleet scheduler's
// control traffic: the coalesced per-shard heartbeat (one frame per shard
// per beat interval, replacing per-host reports) and the gossip load
// vector shards exchange for cross-shard placement.

const (
	tagShardBeat  wirefmt.Tag = 80
	tagLoadVector wirefmt.Tag = 81
)

// ShardBeat is one shard's coalesced heartbeat: the load, run-queue
// length, and availability flags of its members, batched into a single
// frame. Beats are deltas — Slots lists only members whose state changed
// since the previous Seq (Full marks a complete snapshot, sent first and
// after any gap). Slots are shard-relative; Base maps slot 0 to a global
// host id. Both sides of the exchange reuse their ShardBeat and its
// slices, so a steady-state beat neither allocates nor copies.
type ShardBeat struct {
	Shard int
	Seq   uint64
	Base  int
	Full  bool
	Slots []int
	Loads []int
	Runq  []int
	// Flags per included slot: bit0 alive, bit1 owner-active.
	Flags []byte
}

// reset clears the member arrays, keeping capacity.
func (b *ShardBeat) reset() {
	b.Slots = b.Slots[:0]
	b.Loads = b.Loads[:0]
	b.Runq = b.Runq[:0]
	b.Flags = b.Flags[:0]
}

// LoadVector is the bounded-staleness summary a shard gossips to its
// peers: enough to pick a remote destination (the least-loaded member and
// its load, by both work units and run-queue length) without a global
// scan. Epoch stamps the gossip round it was produced in; consumers drop
// vectors older than the configured staleness bound.
type LoadVector struct {
	Shard   int
	Epoch   uint64
	Members int
	Total   int
	MaxLoad int
	// Least-loaded eligible member by work units (host is global; -1
	// when the shard has no eligible receiver).
	MinLoad int
	MinHost int
	// Least-loaded eligible member by run-queue length.
	MinRunq     int
	MinRunqHost int
}

func init() {
	wirefmt.Register(tagShardBeat, "gs.shardbeat", (*ShardBeat)(nil), encodeShardBeatWire, decodeShardBeatWire)
	wirefmt.Register(tagLoadVector, "gs.loadvector", (*LoadVector)(nil), encodeLoadVectorWire, decodeLoadVectorWire)
}

func encodeShardBeatWire(dst []byte, v any) ([]byte, error) {
	b := v.(*ShardBeat)
	dst = wirefmt.AppendInt(dst, b.Shard)
	dst = wirefmt.AppendUvarint(dst, b.Seq)
	dst = wirefmt.AppendInt(dst, b.Base)
	dst = wirefmt.AppendBool(dst, b.Full)
	dst = wirefmt.AppendInts(dst, b.Slots)
	dst = wirefmt.AppendInts(dst, b.Loads)
	dst = wirefmt.AppendInts(dst, b.Runq)
	dst = wirefmt.AppendBytes(dst, b.Flags)
	return dst, nil
}

// decodeShardBeatWire is the registry decoder (allocates its result, like
// every registered decoder — differential tests and tooling use it). The
// scheduler's hot path decodes with readShardBeatInto instead.
func decodeShardBeatWire(r *wirefmt.Reader) (any, error) {
	b := &ShardBeat{}
	if err := readShardBeatInto(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readShardBeatInto decodes a shard-beat body into b, reusing b's member
// slices — zero allocations once their capacity is warm.
func readShardBeatInto(r *wirefmt.Reader, b *ShardBeat) error {
	var err error
	if b.Shard, err = r.Int(); err != nil {
		return err
	}
	if b.Seq, err = r.Uvarint(); err != nil {
		return err
	}
	if b.Base, err = r.Int(); err != nil {
		return err
	}
	if b.Full, err = r.Bool(); err != nil {
		return err
	}
	b.reset()
	if b.Slots, err = readIntsInto(r, b.Slots); err != nil {
		return err
	}
	if b.Loads, err = readIntsInto(r, b.Loads); err != nil {
		return err
	}
	if b.Runq, err = readIntsInto(r, b.Runq); err != nil {
		return err
	}
	flags, err := r.Bytes()
	if err != nil {
		return err
	}
	b.Flags = append(b.Flags, flags...)
	if len(b.Slots) != len(b.Loads) || len(b.Slots) != len(b.Runq) || len(b.Slots) != len(b.Flags) {
		return errs.Newf(CodeBadBeat, "shard beat arrays disagree: %d slots, %d loads, %d runq, %d flags",
			len(b.Slots), len(b.Loads), len(b.Runq), len(b.Flags))
	}
	return nil
}

// readIntsInto is Reader.Ints into caller-owned storage.
func readIntsInto(r *wirefmt.Reader, dst []int) ([]int, error) {
	m, err := r.Uvarint()
	if err != nil || m == 0 {
		return dst, err
	}
	n := m - 1
	if err := r.CheckClaim(n, 1); err != nil {
		return dst, err
	}
	for i := uint64(0); i < n; i++ {
		v, err := r.Int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func encodeLoadVectorWire(dst []byte, v any) ([]byte, error) {
	lv := v.(*LoadVector)
	dst = wirefmt.AppendInt(dst, lv.Shard)
	dst = wirefmt.AppendUvarint(dst, lv.Epoch)
	dst = wirefmt.AppendInt(dst, lv.Members)
	dst = wirefmt.AppendInt(dst, lv.Total)
	dst = wirefmt.AppendInt(dst, lv.MaxLoad)
	dst = wirefmt.AppendInt(dst, lv.MinLoad)
	dst = wirefmt.AppendInt(dst, lv.MinHost)
	dst = wirefmt.AppendInt(dst, lv.MinRunq)
	dst = wirefmt.AppendInt(dst, lv.MinRunqHost)
	return dst, nil
}

func decodeLoadVectorWire(r *wirefmt.Reader) (any, error) {
	lv := &LoadVector{}
	if err := readLoadVectorInto(r, lv); err != nil {
		return nil, err
	}
	return lv, nil
}

// readLoadVectorInto decodes a load-vector body into lv without
// allocating.
func readLoadVectorInto(r *wirefmt.Reader, lv *LoadVector) error {
	var err error
	if lv.Shard, err = r.Int(); err != nil {
		return err
	}
	if lv.Epoch, err = r.Uvarint(); err != nil {
		return err
	}
	if lv.Members, err = r.Int(); err != nil {
		return err
	}
	if lv.Total, err = r.Int(); err != nil {
		return err
	}
	if lv.MaxLoad, err = r.Int(); err != nil {
		return err
	}
	if lv.MinLoad, err = r.Int(); err != nil {
		return err
	}
	if lv.MinHost, err = r.Int(); err != nil {
		return err
	}
	if lv.MinRunq, err = r.Int(); err != nil {
		return err
	}
	lv.MinRunqHost, err = r.Int()
	return err
}
