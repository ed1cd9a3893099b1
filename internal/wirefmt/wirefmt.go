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
// tags by convention in documented bands (16–31 core, 32–47 pvm, 48–63
// mpvm, 64–79 ft) via Register from their init functions. Tag values and
// the order an encoder writes its fields are wire ABI: changing either
// requires bumping Version, and the golden-bytes tests in each owning
// package exist to make an accidental change loud. A struct's Go field
// order is not: the encoders name every field they write. A decoder receiving an unknown version or tag
// returns a structured error (wire.bad-version / wire.unknown-tag) rather
// than guessing — version skew is an explicit failure, never a misparse.
//
// # Decoding discipline
//
// Decode never panics and never over-allocates on corrupt input: every
// length claim is checked against the bytes actually remaining before any
// slice is sized from it, recursion through nested values is depth-capped,
// and all failures are internal/errs errors under the "wire." namespace.
//
// A Reader keeps its first failure, as core.Reader does, so a registered
// decoder reads its fields in wire order and never checks an error: Go
// evaluates a composite literal's calls left to right, so the reads may sit
// inside the literal the decoder returns. Decode checks Err once and
// discards the value of a body that failed.
package wirefmt

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"sync"

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

// MaxBody caps a frame's body length: a larger claim in a header is
// corruption, not a legitimate message, and is rejected before any
// allocation.
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

// DecodeFunc reads one body off r and returns the reconstructed value. It
// reports a malformed body through r (a failed read, or r.Fail), never by
// its result: once r has failed, the value it returns is discarded.
type DecodeFunc func(r *Reader) any

type entry struct {
	tag Tag
	enc EncodeFunc
	dec DecodeFunc
}

var (
	byType = map[reflect.Type]*entry{}
	byTag  = map[Tag]*entry{}
)

// Register installs the wire encoding for sample's concrete type under
// tag. Protocol packages call it from init; double registration of a tag
// or type, a tag inside the built-in range, or a missing encoder or
// decoder is a programming error and panics. name only labels those
// panics; it is not kept, and the wire carries tags, never names.
func Register(tag Tag, name string, sample any, enc EncodeFunc, dec DecodeFunc) {
	if tag < tagReserved {
		panic("wirefmt: tag " + name + " in the built-in primitive range")
	}
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("wirefmt: Register with nil sample")
	}
	if enc == nil || dec == nil {
		panic("wirefmt: " + name + " registered with a nil encoder or decoder")
	}
	if _, dup := byTag[tag]; dup {
		panic("wirefmt: duplicate tag registration: " + name)
	}
	if _, dup := byType[t]; dup {
		panic("wirefmt: duplicate type registration: " + name)
	}
	e := &entry{tag: tag, enc: enc, dec: dec}
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

// Decode parses one complete frame. The result never aliases data: strings
// and byte slices are copied out, so a transport may read every frame into
// one reused buffer. The cursor comes from a pool and goes back to it, so a
// decode allocates only the value it returns, and decodes may run on any
// number of goroutines at once. All errors are internal/errs errors in the
// "wire." namespace; Decode never panics on arbitrary input.
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
	r := readers.Get().(*Reader)
	*r = Reader{data: data, pos: HeaderLen}
	v := r.decodeTag(tag)
	trailing, err := len(data)-r.pos, r.err
	*r = Reader{} // drop the frame before the cursor is pooled
	readers.Put(r)
	if err != nil {
		return nil, err
	}
	if trailing != 0 {
		return nil, errs.Newf(CodeTrailing, "wirefmt: %d trailing bytes after tag %d body", trailing, tag)
	}
	return v, nil
}

// readers pools Decode's cursors: a Reader reaches the registered decoders
// through a func value, so one declared inside Decode would escape to the
// heap on every frame.
var readers = sync.Pool{New: func() any { return new(Reader) }}

// Reader is a bounds-checked cursor over a frame body, handed to
// registered DecodeFuncs. Its error is sticky: the first failure — a read
// past the end, a malformed field, or a decoder's own Fail — is kept, and
// from then on every read returns its zero value without advancing.
// Nested-value recursion is depth-capped.
type Reader struct {
	data  []byte
	pos   int
	depth int
	err   error
}

// Err returns the reader's first failure, or nil if every read so far
// succeeded.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure unless it has already failed: a
// decoder's way to refuse a value its reads decoded cleanly.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

func (r *Reader) truncated(what string) {
	r.Fail(errs.Newf(CodeTruncated, "wirefmt: truncated %s at offset %d", what, r.pos))
}

// need reports whether r is still good with n more bytes to read, failing
// it as truncated when they are not there.
func (r *Reader) need(n uint64, what string) bool {
	if r.err == nil && n > uint64(r.Remaining()) {
		r.truncated(what)
	}
	return r.err == nil
}

// CheckClaim validates a decoded element count against the bytes that
// could possibly back it (minPerItem encoded bytes each) before the caller
// sizes a slice from it — a corrupt count fails the reader as
// wire.truncated instead of allocating. It reports whether r is still good.
func (r *Reader) CheckClaim(count uint64, minPerItem int) bool {
	if r.err == nil && count > uint64(r.Remaining())/uint64(minPerItem) {
		r.Fail(errs.Newf(CodeTruncated, "wirefmt: count %d claims more than the %d bytes remaining", count, r.Remaining()))
	}
	return r.err == nil
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if !r.need(1, "byte") {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Bool reads one byte that must be exactly 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail(errs.Newf(CodeBadValue, "wirefmt: bool byte 0x%02x", b))
		return false
	}
	return b == 1
}

// Uvarint reads an unsigned LEB128 varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.truncated("uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Int64 reads a zig-zag LEB128 varint.
func (r *Reader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.truncated("varint")
		return 0
	}
	r.pos += n
	return v
}

// Int reads a zig-zag LEB128 varint as an int.
func (r *Reader) Int() int { return int(r.Int64()) }

// Float64 reads 8 bytes of little-endian IEEE-754 bits.
func (r *Reader) Float64() float64 {
	if !r.need(8, "float64") {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v
}

// String reads a varint length and that many raw bytes.
func (r *Reader) String() string {
	n := r.Uvarint()
	if !r.need(n, "string") {
		return ""
	}
	s := string(r.data[r.pos : r.pos+int(n)]) // lint:alloc decoded result: the string the receiver keeps
	r.pos += int(n)
	return s
}

// Bytes reads a count+1-prefixed byte slice (0 decodes nil). The result
// aliases the frame buffer, which the transport reuses once Decode returns:
// a decoder that keeps the bytes keeps a copy (bytes.Clone keeps nil and
// empty apart).
func (r *Reader) Bytes() []byte {
	m := r.Uvarint()
	if m == 0 || !r.need(m-1, "bytes") {
		return nil
	}
	end := r.pos + int(m-1)
	b := r.data[r.pos:end:end]
	r.pos = end
	return b
}

// Ints reads a count+1-prefixed []int (0 decodes nil).
func (r *Reader) Ints() []int {
	m := r.Uvarint()
	if m == 0 || !r.CheckClaim(m-1, 1) {
		return nil
	}
	out := make([]int, m-1) // lint:alloc decoded result: the slice the receiver keeps
	for i := range out {
		out[i] = r.Int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Float64s reads a count+1-prefixed []float64 (0 decodes nil). Its claim
// check leaves room for every element, so no element read can fail.
func (r *Reader) Float64s() []float64 {
	m := r.Uvarint()
	if m == 0 || !r.CheckClaim(m-1, 8) {
		return nil
	}
	out := make([]float64, m-1) // lint:alloc decoded result: the slice the receiver keeps
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// Any reads a nested value: bare little-endian tag, then its body.
func (r *Reader) Any() any {
	if !r.need(2, "nested tag") {
		return nil
	}
	tag := Tag(binary.LittleEndian.Uint16(r.data[r.pos:]))
	r.pos += 2
	return r.decodeTag(tag)
}

// decodeTag decodes one tag's body, depth-capped; a body that failed
// decodes to nil.
func (r *Reader) decodeTag(tag Tag) any {
	if r.depth == maxDepth {
		r.Fail(errs.Newf(CodeDepth, "wirefmt: nesting deeper than %d", maxDepth))
		return nil
	}
	r.depth++
	v := r.decodeBody(tag)
	r.depth--
	if r.err != nil {
		return nil
	}
	return v
}

// decodeBody decodes one tag's body. The scalar, string and slice cases box
// the decoded value into the result interface: that value is what the
// receiver keeps.
func (r *Reader) decodeBody(tag Tag) any {
	switch tag {
	case TagNil:
		return nil
	case TagBool:
		return r.Bool() // lint:alloc decoded result, boxed for the receiver (a bool's box is static)
	case TagInt:
		return r.Int() // lint:alloc decoded result, boxed for the receiver
	case TagInt64:
		return r.Int64() // lint:alloc decoded result, boxed for the receiver
	case TagFloat64:
		return r.Float64() // lint:alloc decoded result, boxed for the receiver
	case TagString:
		return r.String() // lint:alloc decoded result, boxed for the receiver
	case TagBytes:
		return bytes.Clone(r.Bytes()) // lint:alloc decoded result: the receiver keeps its own copy of the frame's bytes
	case TagInts:
		return r.Ints() // lint:alloc decoded result, boxed for the receiver
	case TagFloat64s:
		return r.Float64s() // lint:alloc decoded result, boxed for the receiver
	}
	e := byTag[tag]
	if e == nil {
		r.Fail(errs.Newf(CodeUnknownTag, "wirefmt: unknown type tag %d", tag))
		return nil
	}
	return e.dec(r)
}
