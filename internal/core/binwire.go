package core

import (
	"pvmigrate/internal/errs"
	"pvmigrate/internal/wirefmt"
)

// Binary wire-format support (internal/wirefmt): the explicit, versioned
// encoding every cross-host payload uses. This file owns core's tag range
// (16–31).
//
// Buffer's body layout (tag 16):
//
//	nitems  uvarint
//	item*   kind u8, then per kind:
//	          int      zig-zag varint
//	          float64s count+1-prefixed 8-byte LE elements
//	          bytes    count+1-prefixed raw bytes
//	          string   uvarint length + raw bytes
//	          virtual  zig-zag varint (size only)
//	          buffer   nested any (TagNil or tag 16 + body, depth-capped)
//	bytes   zig-zag varint — the byte accounting, carried verbatim because
//	        pack time and wire time are functions of Bytes() and a decoded
//	        buffer must charge exactly what the original did
//
// TID (tag 17) is one zig-zag varint; it rides CtlMsg `any` payloads (the
// kill RPC).
const (
	tagBuffer wirefmt.Tag = 16
	tagTID    wirefmt.Tag = 17
)

func init() {
	wirefmt.Register(tagBuffer, "core.Buffer", (*Buffer)(nil), encodeBufferWire, decodeBufferWire)
	wirefmt.Register(tagTID, "core.TID", TID(0), encodeTIDWire, decodeTIDWire)
}

func encodeBufferWire(dst []byte, v any) ([]byte, error) {
	b := v.(*Buffer)
	if b == nil {
		return dst, errs.Newf(wirefmt.CodeBadValue, "core: encode nil *Buffer; carry nil payloads as TagNil")
	}
	dst = wirefmt.AppendUvarint(dst, uint64(len(b.items)))
	for n := range b.items {
		it := &b.items[n]
		dst = append(dst, byte(it.kind))
		switch it.kind {
		case kindInt:
			dst = wirefmt.AppendInt(dst, it.i)
		case kindFloat64s:
			dst = wirefmt.AppendFloat64s(dst, it.floats)
		case kindBytes:
			dst = wirefmt.AppendBytes(dst, it.bytes)
		case kindString:
			dst = wirefmt.AppendString(dst, it.str)
		case kindVirtual:
			dst = wirefmt.AppendInt(dst, it.virtual)
		case kindBuffer:
			var nested any
			if it.buf != nil {
				nested = it.buf
			}
			var err error
			if dst, err = wirefmt.AppendAny(dst, nested); err != nil {
				return dst, err
			}
		default:
			return dst, errs.Newf(wirefmt.CodeBadValue, "core: encode buffer item of unknown kind %d", it.kind)
		}
	}
	dst = wirefmt.AppendInt(dst, b.bytes)
	return dst, nil
}

func decodeBufferWire(r *wirefmt.Reader) (any, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each item costs at least its kind byte; reject corrupt counts before
	// sizing the slice from them.
	if err := r.CheckClaim(n, 1); err != nil {
		return nil, err
	}
	b := &Buffer{}
	if n > 0 {
		b.items = make([]item, n)
	}
	for i := range b.items {
		k, err := r.Byte()
		if err != nil {
			return nil, err
		}
		it := &b.items[i]
		it.kind = itemKind(k)
		switch it.kind {
		case kindInt:
			it.i, err = r.Int()
		case kindFloat64s:
			it.floats, err = r.Float64s()
		case kindBytes:
			it.bytes, err = r.Bytes()
		case kindString:
			it.str, err = r.String()
		case kindVirtual:
			it.virtual, err = r.Int()
		case kindBuffer:
			var nested any
			if nested, err = r.Any(); err == nil && nested != nil {
				inner, ok := nested.(*Buffer)
				if !ok {
					return nil, errs.Newf(wirefmt.CodeBadValue, "core: nested buffer item decoded as %T", nested)
				}
				it.buf = inner
			}
		default:
			return nil, errs.Newf(wirefmt.CodeBadValue, "core: decoded buffer item %d has unknown kind %d", i, k)
		}
		if err != nil {
			return nil, err
		}
	}
	if b.bytes, err = r.Int(); err != nil {
		return nil, err
	}
	return b, nil
}

func encodeTIDWire(dst []byte, v any) ([]byte, error) {
	return wirefmt.AppendInt(dst, int(v.(TID))), nil
}

func decodeTIDWire(r *wirefmt.Reader) (any, error) {
	v, err := r.Int()
	return TID(v), err
}
