// Package wirefmt is pvmigrate's explicit, versioned binary wire format:
// the byte layout every cross-host payload travels in when frames ride the
// real-socket backend (internal/netwire).
//
// It is deliberately not encoding/gob. Gob re-emits type descriptors on
// every frame (each frame is decoded independently, so the descriptors can
// never amortize), allocates throughout via reflection, and ties the byte
// format to Go-version gob internals — none of which survives the paper's
// heterogeneity story, where migration state must be architecture-
// independent. wirefmt is the opposite trade: a hand-rolled
// registry of per-type encoders over a tiny set of primitive encodings,
// append-style so the steady-state encode path performs zero allocations
// into a caller-pooled buffer, with the layout pinned by golden-bytes
// tests so drift is a test diff instead of a silent incompatibility.
//
// # Frame layout
//
// Every top-level value is framed:
//
//	offset  size  field
//	0       2     magic "PW" (0x50 0x57)
//	2       1     format version (currently 1)
//	3       2     type tag, little-endian uint16
//	5       4     body length, little-endian uint32
//	9       n     body (per-tag encoding)
//
// The body length covers the body only, must equal the bytes remaining
// after the header, and is capped at MaxBody. Nested `any` fields (e.g.
// pvm.CtlMsg.Payload) are encoded as a bare little-endian uint16 tag
// followed by the body — no inner magic/version/length, because the outer
// frame already establishes both.
//
// # Primitive encodings
//
// All multi-byte scalars are little-endian. Integers (int, int64, and
// every integer-valued struct field) use zig-zag LEB128 varints
// (encoding/binary's signed varint); lengths and counts use unsigned
// LEB128. float64 is 8 bytes of IEEE-754 little-endian bits. Strings are
// an unsigned varint length followed by raw bytes. Slices ([]byte, []int,
// []float64, and registered slice-valued fields) are length-prefixed with
// count+1 so that nil (encoded 0) and empty (encoded 1) survive the round
// trip distinctly.
//
// # Type tags and versioning
//
// Tags 0–15 are the built-in primitives below. Protocol packages claim
// tags in fixed, documented ranges (16–31 core, 32–47 pvm, 48–63 mpvm,
// 64–79 ft, 80–95 gs) via Register from their init functions. Tag values
// and field order are wire ABI: changing either requires bumping Version,
// and the golden-bytes tests in each owning package exist to make an
// accidental change loud. A decoder receiving an unknown version or tag
// returns a structured error (wire.bad-version / wire.unknown-tag) rather
// than guessing — version skew is an explicit failure, never a misparse.
//
// # Decoding discipline
//
// Decode never panics and never over-allocates on corrupt input: every
// length claim is checked against the bytes actually remaining before any
// slice is sized from it, recursion through nested values is depth-capped,
// and all failures are internal/errs errors under the "wire." namespace.
package wirefmt

import (
	"encoding/binary"
	"math"
	"reflect"

	"pvmigrate/internal/errs"
)

// Tag identifies a registered wire type inside frames and nested values.
type Tag uint16

// Built-in primitive tags. Everything pvm protocols carry bare inside an
// `any` payload field without a registered struct type lands on one of
// these.
const (
	TagNil      Tag = 0
	TagBool     Tag = 1
	TagInt      Tag = 2
	TagInt64    Tag = 3
	TagFloat64  Tag = 4
	TagString   Tag = 5
	TagBytes    Tag = 6
	TagInts     Tag = 7
	TagFloat64s Tag = 8

	// tagReserved is the first tag available to protocol packages.
	tagReserved Tag = 16
)

// Version is the current wire-format version carried in every frame
// header. Bump it when a tag's body layout changes; decoders reject
// anything else.
const Version = 1

// HeaderLen is the fixed frame header size.
const HeaderLen = 9

// MaxBody caps a frame's body length, mirroring netwire's maxFrame: a
// larger claim in a header is corruption, not a legitimate message, and is
// rejected before any allocation.
const MaxBody = 64 << 20

// maxDepth bounds recursion through nested values (buffers nest buffers);
// adversarial input cannot force unbounded decoder stack growth.
const maxDepth = 64

const magic0, magic1 = 'P', 'W'

// Structured error codes for every way a frame can be malformed.
const (
	CodeTruncated   errs.Code = "wire.truncated"
	CodeBadMagic    errs.Code = "wire.bad-magic"
	CodeBadVersion  errs.Code = "wire.bad-version"
	CodeUnknownTag  errs.Code = "wire.unknown-tag"
	CodeLengthClaim errs.Code = "wire.length-mismatch"
	CodeTrailing    errs.Code = "wire.trailing-bytes"
	CodeOversized   errs.Code = "wire.oversized"
	CodeDepth       errs.Code = "wire.depth-exceeded"
	CodeUnencodable errs.Code = "wire.unencodable"
	CodeBadValue    errs.Code = "wire.bad-value"
)

// EncodeFunc appends v's body encoding to dst. It may fail only when v
// carries a nested value with no registered encoding.
type EncodeFunc func(dst []byte, v any) ([]byte, error)

// DecodeFunc reads one body off r and returns the reconstructed value.
type DecodeFunc func(r *Reader) (any, error)

type entry struct {
	tag  Tag
	name string
	enc  EncodeFunc
	dec  DecodeFunc
}

var (
	byType = map[reflect.Type]*entry{}
	byTag  = map[Tag]*entry{}
)

// Register installs the wire encoding for sample's concrete type under
// tag. Protocol packages call it from init; double registration of a tag
// or type, or a tag inside the built-in range, is a programming error and
// panics. Registered names are used in error messages only — the wire
// carries tags, never names.
func Register(tag Tag, name string, sample any, enc EncodeFunc, dec DecodeFunc) {
	if tag < tagReserved {
		panic("wirefmt: tag " + name + " in the built-in primitive range")
	}
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("wirefmt: Register with nil sample")
	}
	if _, dup := byTag[tag]; dup {
		panic("wirefmt: duplicate tag registration: " + name)
	}
	if _, dup := byType[t]; dup {
		panic("wirefmt: duplicate type registration: " + name)
	}
	e := &entry{tag: tag, name: name, enc: enc, dec: dec}
	byTag[tag] = e
	byType[t] = e
}

// Append encodes payload as one complete frame appended to dst. The
// returned slice shares dst's backing array when capacity allows, so a
// caller that retains the result as its next dst reaches zero steady-state
// allocations. On error dst is returned unmodified (at its original
// length).
func Append(dst []byte, payload any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, magic0, magic1, Version, 0, 0, 0, 0, 0, 0)
	tag, out, err := appendBody(dst, payload)
	if err != nil {
		return dst[:start], err
	}
	body := len(out) - start - HeaderLen
	if body > MaxBody {
		return out[:start], errs.Newf(CodeOversized, "wirefmt: %T encodes to %d bytes, over MaxBody", payload, body)
	}
	binary.LittleEndian.PutUint16(out[start+3:], uint16(tag))
	binary.LittleEndian.PutUint32(out[start+5:], uint32(body))
	return out, nil
}

// AppendAny encodes a nested value: bare little-endian tag, then body.
// Registered struct encoders use it for their `any`-typed fields.
func AppendAny(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0)
	tag, out, err := appendBody(dst, v)
	if err != nil {
		return dst[:start], err
	}
	binary.LittleEndian.PutUint16(out[start:], uint16(tag))
	return out, nil
}

// appendBody dispatches on payload's concrete type: primitives inline,
// everything else through the registry.
func appendBody(dst []byte, payload any) (Tag, []byte, error) {
	switch x := payload.(type) {
	case nil:
		return TagNil, dst, nil
	case bool:
		return TagBool, AppendBool(dst, x), nil
	case int:
		return TagInt, AppendInt(dst, x), nil
	case int64:
		return TagInt64, AppendInt64(dst, x), nil
	case float64:
		return TagFloat64, AppendFloat64(dst, x), nil
	case string:
		return TagString, AppendString(dst, x), nil
	case []byte:
		return TagBytes, AppendBytes(dst, x), nil
	case []int:
		return TagInts, AppendInts(dst, x), nil
	case []float64:
		return TagFloat64s, AppendFloat64s(dst, x), nil
	}
	e := byType[reflect.TypeOf(payload)]
	if e == nil {
		return 0, dst, errs.Newf(CodeUnencodable, "wirefmt: no binary wire encoding registered for %T", payload)
	}
	out, err := e.enc(dst, payload)
	if err != nil {
		return 0, dst, err
	}
	return e.tag, out, nil
}

// Append helpers for registered encoders. All are pure appends: zero
// allocations once dst has capacity.

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendInt appends a zig-zag LEB128 varint.
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendInt64 appends a zig-zag LEB128 varint.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// AppendUvarint appends an unsigned LEB128 varint (lengths, counts).
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendFloat64 appends 8 bytes of little-endian IEEE-754 bits.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends an unsigned varint length and the raw bytes.
func AppendString(dst []byte, v string) []byte {
	dst = AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// AppendBytes appends count+1 (0 encodes nil) and the raw bytes.
func AppendBytes(dst []byte, v []byte) []byte {
	if v == nil {
		return AppendUvarint(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(v))+1)
	return append(dst, v...)
}

// AppendInts appends count+1 (0 encodes nil) and zig-zag varints.
func AppendInts(dst []byte, v []int) []byte {
	if v == nil {
		return AppendUvarint(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(v))+1)
	for _, x := range v {
		dst = AppendInt(dst, x)
	}
	return dst
}

// AppendFloat64s appends count+1 (0 encodes nil) and 8-byte LE elements.
func AppendFloat64s(dst []byte, v []float64) []byte {
	if v == nil {
		return AppendUvarint(dst, 0)
	}
	dst = AppendUvarint(dst, uint64(len(v))+1)
	for _, x := range v {
		dst = AppendFloat64(dst, x)
	}
	return dst
}

// Decode parses one complete frame. Byte-slice and string results may
// alias data, which the transport hands over wholesale (each received
// frame owns its buffer), so decode is copy-free. All errors are
// internal/errs errors in the "wire." namespace; Decode never panics on
// arbitrary input.
func Decode(data []byte) (any, error) {
	if len(data) < HeaderLen {
		return nil, errs.Newf(CodeTruncated, "wirefmt: frame %d bytes, need %d-byte header", len(data), HeaderLen)
	}
	if data[0] != magic0 || data[1] != magic1 {
		return nil, errs.Newf(CodeBadMagic, "wirefmt: bad magic 0x%02x%02x", data[0], data[1])
	}
	if data[2] != Version {
		return nil, errs.Newf(CodeBadVersion, "wirefmt: version %d, this decoder speaks %d", data[2], Version)
	}
	tag := Tag(binary.LittleEndian.Uint16(data[3:]))
	n := binary.LittleEndian.Uint32(data[5:])
	if n > MaxBody {
		return nil, errs.Newf(CodeOversized, "wirefmt: header claims %d-byte body, over MaxBody", n)
	}
	if int(n) != len(data)-HeaderLen {
		return nil, errs.Newf(CodeLengthClaim, "wirefmt: header claims %d-byte body, frame carries %d", n, len(data)-HeaderLen)
	}
	r := &Reader{data: data, pos: HeaderLen}
	v, err := r.decodeTag(tag)
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, errs.Newf(CodeTrailing, "wirefmt: %d trailing bytes after tag %d body", len(data)-r.pos, tag)
	}
	return v, nil
}

// Reader is a bounds-checked cursor over a frame body, handed to
// registered DecodeFuncs. Every method returns a structured error instead
// of reading past the end, and nested-value recursion is depth-capped.
type Reader struct {
	data  []byte
	pos   int
	depth int
}

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

func (r *Reader) truncated(what string) error {
	return errs.Newf(CodeTruncated, "wirefmt: truncated %s at offset %d", what, r.pos)
}

// CheckClaim validates a decoded element count against the bytes that
// could possibly back it (minPerItem encoded bytes each) before the caller
// sizes a slice from it — corrupt counts must fail, not allocate.
func (r *Reader) CheckClaim(count uint64, minPerItem int) error {
	if count > uint64(r.Remaining())/uint64(minPerItem) {
		return errs.Newf(CodeTruncated, "wirefmt: count %d claims more than the %d bytes remaining", count, r.Remaining())
	}
	return nil
}

// Byte reads one raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, r.truncated("byte")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// Bool reads one byte that must be exactly 0 or 1.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, errs.Newf(CodeBadValue, "wirefmt: bool byte 0x%02x", b)
	}
	return b == 1, nil
}

// Uvarint reads an unsigned LEB128 varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.truncated("uvarint")
	}
	r.pos += n
	return v, nil
}

// Int64 reads a zig-zag LEB128 varint.
func (r *Reader) Int64() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.truncated("varint")
	}
	r.pos += n
	return v, nil
}

// Int reads a zig-zag LEB128 varint as an int.
func (r *Reader) Int() (int, error) {
	v, err := r.Int64()
	return int(v), err
}

// Float64 reads 8 bytes of little-endian IEEE-754 bits.
func (r *Reader) Float64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, r.truncated("float64")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, nil
}

// String reads a varint length and that many raw bytes.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Remaining()) {
		return "", r.truncated("string")
	}
	s := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// Bytes reads a count+1-prefixed byte slice (0 decodes nil). The result
// aliases the frame buffer.
func (r *Reader) Bytes() ([]byte, error) {
	m, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if m == 0 {
		return nil, nil
	}
	n := m - 1
	if n > uint64(r.Remaining()) {
		return nil, r.truncated("bytes")
	}
	b := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// Ints reads a count+1-prefixed []int (0 decodes nil).
func (r *Reader) Ints() ([]int, error) {
	m, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if m == 0 {
		return nil, nil
	}
	n := m - 1
	if err := r.CheckClaim(n, 1); err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		if out[i], err = r.Int(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Float64s reads a count+1-prefixed []float64 (0 decodes nil).
func (r *Reader) Float64s() ([]float64, error) {
	m, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if m == 0 {
		return nil, nil
	}
	n := m - 1
	if err := r.CheckClaim(n, 8); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = r.Float64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Any reads a nested value: bare little-endian tag, then its body.
func (r *Reader) Any() (any, error) {
	if r.Remaining() < 2 {
		return nil, r.truncated("nested tag")
	}
	tag := Tag(binary.LittleEndian.Uint16(r.data[r.pos:]))
	r.pos += 2
	return r.decodeTag(tag)
}

func (r *Reader) decodeTag(tag Tag) (any, error) {
	r.depth++
	defer func() { r.depth-- }()
	if r.depth > maxDepth {
		return nil, errs.Newf(CodeDepth, "wirefmt: nesting deeper than %d", maxDepth)
	}
	switch tag {
	case TagNil:
		return nil, nil
	case TagBool:
		return r.Bool()
	case TagInt:
		return r.Int()
	case TagInt64:
		return r.Int64()
	case TagFloat64:
		return r.Float64()
	case TagString:
		return r.String()
	case TagBytes:
		return r.Bytes()
	case TagInts:
		return r.Ints()
	case TagFloat64s:
		return r.Float64s()
	}
	e := byTag[tag]
	if e == nil {
		return nil, errs.Newf(CodeUnknownTag, "wirefmt: unknown type tag %d", tag)
	}
	return e.dec(r)
}
