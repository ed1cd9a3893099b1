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
//	33 *CtlMsg       Kind string, From, Payload as nested any. The Reply
//	                 closure is dropped: a kernel-context reply func only
//	                 ever serves local RPCs and is nil on anything that
//	                 crosses hosts.
//	34 *spawnReq     rpc, name string, replyHost
//	35 *spawnReply   rpc, tid, err string
//	36 *groupReq     id, op string, group string, tid, host, count
//	37 *groupReply   id, inst, size, members (count+1-prefixed TIDs),
//	                 err string
const (
	tagMessage    wirefmt.Tag = 32
	tagCtlMsg     wirefmt.Tag = 33
	tagSpawnReq   wirefmt.Tag = 34
	tagSpawnReply wirefmt.Tag = 35
	tagGroupReq   wirefmt.Tag = 36
	tagGroupReply wirefmt.Tag = 37
)

func init() {
	wirefmt.Register(tagMessage, "pvm.Message", (*Message)(nil), encodeMessageWire, decodeMessageWire)
	wirefmt.Register(tagCtlMsg, "pvm.CtlMsg", (*CtlMsg)(nil), encodeCtlMsgWire, decodeCtlMsgWire)
	wirefmt.Register(tagSpawnReq, "pvm.spawnReq", (*spawnReq)(nil), encodeSpawnReqWire, decodeSpawnReqWire)
	wirefmt.Register(tagSpawnReply, "pvm.spawnReply", (*spawnReply)(nil), encodeSpawnReplyWire, decodeSpawnReplyWire)
	wirefmt.Register(tagGroupReq, "pvm.groupReq", (*groupReq)(nil), encodeGroupReqWire, decodeGroupReqWire)
	wirefmt.Register(tagGroupReply, "pvm.groupReply", (*groupReply)(nil), encodeGroupReplyWire, decodeGroupReplyWire)
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

func decodeMessageWire(r *wirefmt.Reader) (any, error) {
	m := &Message{}
	src, err := r.Int()
	if err != nil {
		return nil, err
	}
	dst, err := r.Int()
	if err != nil {
		return nil, err
	}
	if m.Tag, err = r.Int(); err != nil {
		return nil, err
	}
	sentAt, err := r.Int64()
	if err != nil {
		return nil, err
	}
	if m.Hops, err = r.Int(); err != nil {
		return nil, err
	}
	m.Src, m.Dst, m.SentAt = core.TID(src), core.TID(dst), sim.Time(sentAt)
	nested, err := r.Any()
	if err != nil {
		return nil, err
	}
	if nested != nil {
		buf, ok := nested.(*core.Buffer)
		if !ok {
			return nil, errs.Newf(wirefmt.CodeBadValue, "pvm: Message.Buf decoded as %T", nested)
		}
		m.Buf = buf
	}
	return m, nil
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

func decodeCtlMsgWire(r *wirefmt.Reader) (any, error) {
	c := &CtlMsg{}
	var err error
	if c.Kind, err = r.String(); err != nil {
		return nil, err
	}
	from, err := r.Int()
	if err != nil {
		return nil, err
	}
	c.From = core.TID(from)
	if c.Payload, err = r.Any(); err != nil {
		return nil, err
	}
	return c, nil
}

func encodeSpawnReqWire(dst []byte, v any) ([]byte, error) {
	q := v.(*spawnReq)
	dst = wirefmt.AppendInt(dst, q.rpc)
	dst = wirefmt.AppendString(dst, q.name)
	return wirefmt.AppendInt(dst, q.replyHost), nil
}

func decodeSpawnReqWire(r *wirefmt.Reader) (any, error) {
	q := &spawnReq{}
	var err error
	if q.rpc, err = r.Int(); err != nil {
		return nil, err
	}
	if q.name, err = r.String(); err != nil {
		return nil, err
	}
	if q.replyHost, err = r.Int(); err != nil {
		return nil, err
	}
	return q, nil
}

func encodeSpawnReplyWire(dst []byte, v any) ([]byte, error) {
	q := v.(*spawnReply)
	dst = wirefmt.AppendInt(dst, q.rpc)
	dst = wirefmt.AppendInt(dst, int(q.tid))
	return wirefmt.AppendString(dst, q.err), nil
}

func decodeSpawnReplyWire(r *wirefmt.Reader) (any, error) {
	q := &spawnReply{}
	rpc, err := r.Int()
	if err != nil {
		return nil, err
	}
	tid, err := r.Int()
	if err != nil {
		return nil, err
	}
	msg, err := r.String()
	if err != nil {
		return nil, err
	}
	q.rpc, q.tid, q.err = rpc, core.TID(tid), msg
	return q, nil
}

func encodeGroupReqWire(dst []byte, v any) ([]byte, error) {
	q := v.(*groupReq)
	dst = wirefmt.AppendInt(dst, q.id)
	dst = wirefmt.AppendString(dst, q.op)
	dst = wirefmt.AppendString(dst, q.group)
	dst = wirefmt.AppendInt(dst, int(q.tid))
	dst = wirefmt.AppendInt(dst, q.host)
	return wirefmt.AppendInt(dst, q.count), nil
}

func decodeGroupReqWire(r *wirefmt.Reader) (any, error) {
	q := &groupReq{}
	var err error
	if q.id, err = r.Int(); err != nil {
		return nil, err
	}
	if q.op, err = r.String(); err != nil {
		return nil, err
	}
	if q.group, err = r.String(); err != nil {
		return nil, err
	}
	tid, err := r.Int()
	if err != nil {
		return nil, err
	}
	q.tid = core.TID(tid)
	if q.host, err = r.Int(); err != nil {
		return nil, err
	}
	if q.count, err = r.Int(); err != nil {
		return nil, err
	}
	return q, nil
}

func encodeGroupReplyWire(dst []byte, v any) ([]byte, error) {
	q := v.(*groupReply)
	dst = wirefmt.AppendInt(dst, q.id)
	dst = wirefmt.AppendInt(dst, q.inst)
	dst = wirefmt.AppendInt(dst, q.size)
	if q.members == nil {
		dst = wirefmt.AppendUvarint(dst, 0)
	} else {
		dst = wirefmt.AppendUvarint(dst, uint64(len(q.members))+1)
		for _, tid := range q.members {
			dst = wirefmt.AppendInt(dst, int(tid))
		}
	}
	return wirefmt.AppendString(dst, q.err), nil
}

func decodeGroupReplyWire(r *wirefmt.Reader) (any, error) {
	q := &groupReply{}
	var err error
	if q.id, err = r.Int(); err != nil {
		return nil, err
	}
	if q.inst, err = r.Int(); err != nil {
		return nil, err
	}
	if q.size, err = r.Int(); err != nil {
		return nil, err
	}
	m, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if m > 0 {
		n := m - 1
		if err := r.CheckClaim(n, 1); err != nil {
			return nil, err
		}
		q.members = make([]core.TID, n)
		for i := range q.members {
			tid, err := r.Int()
			if err != nil {
				return nil, err
			}
			q.members[i] = core.TID(tid)
		}
	}
	if q.err, err = r.String(); err != nil {
		return nil, err
	}
	return q, nil
}
