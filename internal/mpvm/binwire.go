package mpvm

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/wirefmt"
)

// Binary wire-format support (internal/wirefmt): mpvm owns tag range
// 48–63.
//
// Body layouts (all integers zig-zag varints; strings uvarint-length-
// prefixed):
//
//	49 *flushCmd        orig, srcHost
//	50 *flushAck        orig, host
//	51 *skeletonReq     rpc, orig, name string, srcHost, bytes
//	52 *skeletonReady   rpc, port
//	53 *restartCmd      orig, oldTID, newTID
//	56 *roundHeader     orig, round, bytes, final bool
//	57 *migrateCmd      order.VP, order.Dest, order.Reason string, orig, warm bool
//
// Tags 48 (the stop-and-copy-only migrateCmd), 54 (stateHeader) and 55
// (warmMigrateCmd) are retired: they must keep decoding to
// wire.unknown-tag, never be reused.
const (
	tagFlushCmd      wirefmt.Tag = 49
	tagFlushAck      wirefmt.Tag = 50
	tagSkeletonReq   wirefmt.Tag = 51
	tagSkeletonReady wirefmt.Tag = 52
	tagRestartCmd    wirefmt.Tag = 53
	tagRoundHeader   wirefmt.Tag = 56
	tagMigrateCmd    wirefmt.Tag = 57
)

func init() {
	wirefmt.Register(tagFlushCmd, "mpvm.flushCmd", (*flushCmd)(nil), encodeFlushCmdWire, decodeFlushCmdWire)
	wirefmt.Register(tagFlushAck, "mpvm.flushAck", (*flushAck)(nil), encodeFlushAckWire, decodeFlushAckWire)
	wirefmt.Register(tagSkeletonReq, "mpvm.skeletonReq", (*skeletonReq)(nil), encodeSkeletonReqWire, decodeSkeletonReqWire)
	wirefmt.Register(tagSkeletonReady, "mpvm.skeletonReady", (*skeletonReady)(nil), encodeSkeletonReadyWire, decodeSkeletonReadyWire)
	wirefmt.Register(tagRestartCmd, "mpvm.restartCmd", (*restartCmd)(nil), encodeRestartCmdWire, decodeRestartCmdWire)
	wirefmt.Register(tagRoundHeader, "mpvm.roundHeader", (*roundHeader)(nil), encodeRoundHeaderWire, decodeRoundHeaderWire)
	wirefmt.Register(tagMigrateCmd, "mpvm.migrateCmd", (*migrateCmd)(nil), encodeMigrateCmdWire, decodeMigrateCmdWire)
}

func encodeFlushCmdWire(dst []byte, v any) ([]byte, error) {
	c := v.(*flushCmd)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	return wirefmt.AppendInt(dst, c.srcHost), nil
}

func decodeFlushCmdWire(r *wirefmt.Reader) (any, error) {
	orig, err := r.Int()
	if err != nil {
		return nil, err
	}
	srcHost, err := r.Int()
	if err != nil {
		return nil, err
	}
	return &flushCmd{orig: core.TID(orig), srcHost: srcHost}, nil
}

func encodeFlushAckWire(dst []byte, v any) ([]byte, error) {
	c := v.(*flushAck)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	return wirefmt.AppendInt(dst, c.host), nil
}

func decodeFlushAckWire(r *wirefmt.Reader) (any, error) {
	orig, err := r.Int()
	if err != nil {
		return nil, err
	}
	host, err := r.Int()
	if err != nil {
		return nil, err
	}
	return &flushAck{orig: core.TID(orig), host: host}, nil
}

func encodeSkeletonReqWire(dst []byte, v any) ([]byte, error) {
	c := v.(*skeletonReq)
	dst = wirefmt.AppendInt(dst, c.rpc)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	dst = wirefmt.AppendString(dst, c.name)
	dst = wirefmt.AppendInt(dst, c.srcHost)
	return wirefmt.AppendInt(dst, c.bytes), nil
}

func decodeSkeletonReqWire(r *wirefmt.Reader) (any, error) {
	c := &skeletonReq{}
	var err error
	if c.rpc, err = r.Int(); err != nil {
		return nil, err
	}
	orig, err := r.Int()
	if err != nil {
		return nil, err
	}
	c.orig = core.TID(orig)
	if c.name, err = r.String(); err != nil {
		return nil, err
	}
	if c.srcHost, err = r.Int(); err != nil {
		return nil, err
	}
	if c.bytes, err = r.Int(); err != nil {
		return nil, err
	}
	return c, nil
}

func encodeSkeletonReadyWire(dst []byte, v any) ([]byte, error) {
	c := v.(*skeletonReady)
	dst = wirefmt.AppendInt(dst, c.rpc)
	return wirefmt.AppendInt(dst, c.port), nil
}

func decodeSkeletonReadyWire(r *wirefmt.Reader) (any, error) {
	rpc, err := r.Int()
	if err != nil {
		return nil, err
	}
	port, err := r.Int()
	if err != nil {
		return nil, err
	}
	return &skeletonReady{rpc: rpc, port: port}, nil
}

func encodeRestartCmdWire(dst []byte, v any) ([]byte, error) {
	c := v.(*restartCmd)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	dst = wirefmt.AppendInt(dst, int(c.oldTID))
	return wirefmt.AppendInt(dst, int(c.newTID)), nil
}

func decodeRestartCmdWire(r *wirefmt.Reader) (any, error) {
	orig, err := r.Int()
	if err != nil {
		return nil, err
	}
	oldTID, err := r.Int()
	if err != nil {
		return nil, err
	}
	newTID, err := r.Int()
	if err != nil {
		return nil, err
	}
	return &restartCmd{orig: core.TID(orig), oldTID: core.TID(oldTID), newTID: core.TID(newTID)}, nil
}

func encodeRoundHeaderWire(dst []byte, v any) ([]byte, error) {
	c := v.(*roundHeader)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	dst = wirefmt.AppendInt(dst, c.round)
	dst = wirefmt.AppendInt(dst, c.bytes)
	return wirefmt.AppendBool(dst, c.final), nil
}

func decodeRoundHeaderWire(r *wirefmt.Reader) (any, error) {
	orig, err := r.Int()
	if err != nil {
		return nil, err
	}
	round, err := r.Int()
	if err != nil {
		return nil, err
	}
	bytes, err := r.Int()
	if err != nil {
		return nil, err
	}
	final, err := r.Bool()
	if err != nil {
		return nil, err
	}
	return &roundHeader{orig: core.TID(orig), round: round, bytes: bytes, final: final}, nil
}

func encodeMigrateCmdWire(dst []byte, v any) ([]byte, error) {
	c := v.(*migrateCmd)
	dst = wirefmt.AppendInt(dst, int(c.order.VP))
	dst = wirefmt.AppendInt(dst, c.order.Dest)
	dst = wirefmt.AppendString(dst, string(c.order.Reason))
	dst = wirefmt.AppendInt(dst, int(c.orig))
	return wirefmt.AppendBool(dst, c.warm), nil
}

func decodeMigrateCmdWire(r *wirefmt.Reader) (any, error) {
	vp, err := r.Int()
	if err != nil {
		return nil, err
	}
	dest, err := r.Int()
	if err != nil {
		return nil, err
	}
	reason, err := r.String()
	if err != nil {
		return nil, err
	}
	orig, err := r.Int()
	if err != nil {
		return nil, err
	}
	warm, err := r.Bool()
	if err != nil {
		return nil, err
	}
	return &migrateCmd{
		order: core.MigrationOrder{VP: core.TID(vp), Dest: dest, Reason: core.MigrationReason(reason)},
		orig:  core.TID(orig),
		warm:  warm,
	}, nil
}
