package pvm

import (
	"pvmigrate/internal/core"
	"pvmigrate/internal/errs"
	"pvmigrate/internal/sim"
	"pvmigrate/internal/wirefmt"
)

// Binary wire-format support (internal/wirefmt): pvm owns tag range 32–47.
//
// Body layouts (all integers zig-zag varints unless noted):
//
//	32 *Message      Src, Dst, Tag, SentAt (int64 virtual ns), Hops,
//	                 Buf as nested any (TagNil when nil)
//	33 *CtlMsg       Kind string, From, Payload as nested any
//
// Tags 34–37 (the spawn and group-server RPCs) are retired, not free: an
// older peer can still emit them, so reusing one needs a wirefmt.Version bump.
const (
	tagMessage wirefmt.Tag = 32
	tagCtlMsg  wirefmt.Tag = 33
)

func init() {
	wirefmt.Register(tagMessage, "pvm.Message", (*Message)(nil), encodeMessageWire, decodeMessageWire)
	wirefmt.Register(tagCtlMsg, "pvm.CtlMsg", (*CtlMsg)(nil), encodeCtlMsgWire, decodeCtlMsgWire)
}

func encodeMessageWire(dst []byte, v any) ([]byte, error) {
	m := v.(*Message)
	if m == nil {
		return dst, errs.Newf(wirefmt.CodeBadValue, "pvm: encode nil *Message")
	}
	dst = wirefmt.AppendInt(dst, int(m.Src))
	dst = wirefmt.AppendInt(dst, int(m.Dst))
	dst = wirefmt.AppendInt(dst, m.Tag)
	dst = wirefmt.AppendInt64(dst, int64(m.SentAt))
	dst = wirefmt.AppendInt(dst, m.Hops)
	var buf any
	if m.Buf != nil {
		buf = m.Buf
	}
	return wirefmt.AppendAny(dst, buf)
}

func decodeMessageWire(r *wirefmt.Reader) any {
	m := &Message{
		Src: core.TID(r.Int()), Dst: core.TID(r.Int()), Tag: r.Int(),
		SentAt: sim.Time(r.Int64()), Hops: r.Int(),
	}
	if nested := r.Any(); nested != nil {
		buf, ok := nested.(*core.Buffer)
		if !ok {
			r.Fail(errs.Newf(wirefmt.CodeBadValue, "pvm: Message.Buf decoded as %T", nested))
		}
		m.Buf = buf
	}
	return m
}

func encodeCtlMsgWire(dst []byte, v any) ([]byte, error) {
	c := v.(*CtlMsg)
	if c == nil {
		return dst, errs.Newf(wirefmt.CodeBadValue, "pvm: encode nil *CtlMsg")
	}
	dst = wirefmt.AppendString(dst, c.Kind)
	dst = wirefmt.AppendInt(dst, int(c.From))
	return wirefmt.AppendAny(dst, c.Payload)
}

func decodeCtlMsgWire(r *wirefmt.Reader) any {
	return &CtlMsg{Kind: r.String(), From: core.TID(r.Int()), Payload: r.Any()}
}
