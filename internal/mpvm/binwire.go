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

func decodeFlushCmdWire(r *wirefmt.Reader) any {
	return &flushCmd{orig: core.TID(r.Int()), srcHost: r.Int()}
}

func encodeFlushAckWire(dst []byte, v any) ([]byte, error) {
	c := v.(*flushAck)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	return wirefmt.AppendInt(dst, c.host), nil
}

func decodeFlushAckWire(r *wirefmt.Reader) any {
	return &flushAck{orig: core.TID(r.Int()), host: r.Int()}
}

func encodeSkeletonReqWire(dst []byte, v any) ([]byte, error) {
	c := v.(*skeletonReq)
	dst = wirefmt.AppendInt(dst, c.rpc)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	dst = wirefmt.AppendString(dst, c.name)
	dst = wirefmt.AppendInt(dst, c.srcHost)
	return wirefmt.AppendInt(dst, c.bytes), nil
}

func decodeSkeletonReqWire(r *wirefmt.Reader) any {
	return &skeletonReq{rpc: r.Int(), orig: core.TID(r.Int()), name: r.String(), srcHost: r.Int(), bytes: r.Int()}
}

func encodeSkeletonReadyWire(dst []byte, v any) ([]byte, error) {
	c := v.(*skeletonReady)
	dst = wirefmt.AppendInt(dst, c.rpc)
	return wirefmt.AppendInt(dst, c.port), nil
}

func decodeSkeletonReadyWire(r *wirefmt.Reader) any {
	return &skeletonReady{rpc: r.Int(), port: r.Int()}
}

func encodeRestartCmdWire(dst []byte, v any) ([]byte, error) {
	c := v.(*restartCmd)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	dst = wirefmt.AppendInt(dst, int(c.oldTID))
	return wirefmt.AppendInt(dst, int(c.newTID)), nil
}

func decodeRestartCmdWire(r *wirefmt.Reader) any {
	return &restartCmd{orig: core.TID(r.Int()), oldTID: core.TID(r.Int()), newTID: core.TID(r.Int())}
}

func encodeRoundHeaderWire(dst []byte, v any) ([]byte, error) {
	c := v.(*roundHeader)
	dst = wirefmt.AppendInt(dst, int(c.orig))
	dst = wirefmt.AppendInt(dst, c.round)
	dst = wirefmt.AppendInt(dst, c.bytes)
	return wirefmt.AppendBool(dst, c.final), nil
}

func decodeRoundHeaderWire(r *wirefmt.Reader) any {
	return &roundHeader{orig: core.TID(r.Int()), round: r.Int(), bytes: r.Int(), final: r.Bool()}
}

func encodeMigrateCmdWire(dst []byte, v any) ([]byte, error) {
	c := v.(*migrateCmd)
	dst = wirefmt.AppendInt(dst, int(c.order.VP))
	dst = wirefmt.AppendInt(dst, c.order.Dest)
	dst = wirefmt.AppendString(dst, string(c.order.Reason))
	dst = wirefmt.AppendInt(dst, int(c.orig))
	return wirefmt.AppendBool(dst, c.warm), nil
}

func decodeMigrateCmdWire(r *wirefmt.Reader) any {
	return &migrateCmd{
		order: core.MigrationOrder{VP: core.TID(r.Int()), Dest: r.Int(), Reason: core.MigrationReason(r.String())},
		orig:  core.TID(r.Int()),
		warm:  r.Bool(),
	}
}
