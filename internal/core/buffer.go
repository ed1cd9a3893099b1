package core

import "pvmigrate/internal/errs"

// Buffer is a PVM message buffer: a sequence of typed items packed by the
// sender and unpacked in the same order by the receiver (pvm_pkint,
// pvm_pkdouble, pvm_pkbyte, ... in the original API). Two kinds of payload
// coexist:
//
//   - real values (ints, floats, byte slices, strings), carried verbatim so
//     correctness tests can check end-to-end data integrity; and
//   - virtual bytes (PkVirtual), which stand in for bulk data whose content
//     is irrelevant to the simulation — only its size matters for wire and
//     copy time. The Opt benchmarks move training sets as virtual bytes.
//
// Byte accounting follows XDR-ish encoding: 4 bytes per int32-sized int,
// 8 per float64, 1 per byte, length-prefixed strings.
//
// A buffer holds its first inlineItems items in place (the items slice
// points into inline), so NewBuffer is a buffer's one allocation until it
// grows past them. A Buffer must not be copied by value once packed.
type Buffer struct {
	items  []item
	inline [inlineItems]item
	bytes  int
}

// inlineItems is how many items a buffer holds without a slice of its own.
// Nearly every message the protocols send packs at most four items (a
// paper_tables regeneration packs 1,586 buffers, 60 of them past four).
const inlineItems = 4

type itemKind int

const (
	kindInt itemKind = iota
	kindFloat64s
	kindBytes
	kindString
	kindVirtual
	kindBuffer
)

func (k itemKind) String() string {
	switch k {
	case kindInt:
		return "int"
	case kindFloat64s:
		return "float64s"
	case kindBytes:
		return "bytes"
	case kindString:
		return "string"
	case kindVirtual:
		return "virtual"
	case kindBuffer:
		return "buffer"
	}
	return "?"
}

// item is one packed value. Strings and float vectors, which nearly every
// message carries, have fields of their own; the rare byte slice and the
// nested buffer share ref (a *Buffer fits an interface word, a []byte
// costs its own small allocation).
type item struct {
	kind   itemKind
	i      int       // kindInt's value, kindVirtual's size
	str    string    // kindString
	floats []float64 // kindFloat64s
	ref    any       // kindBytes' []byte, kindBuffer's *Buffer
}

// NewBuffer returns an empty message buffer (pvm_initsend).
func NewBuffer() *Buffer { return &Buffer{} }

// add appends one item, into the inline storage while it has room. The
// item that overflows it moves them all to a slice of their own, and the
// inline copies are cleared: a spilled buffer pins no stale reference, and
// it equals a decoded buffer of the same items field for field.
func (b *Buffer) add(it item) {
	if b.items == nil {
		b.items = b.inline[:0]
	}
	spill := len(b.items) == inlineItems && cap(b.items) == inlineItems
	b.items = append(b.items, it)
	if spill {
		clear(b.inline[:])
	}
}

// Bytes returns the encoded size of the buffer in bytes; this is the number
// that drives wire time and copy costs.
func (b *Buffer) Bytes() int { return b.bytes }

// PkInt appends one integer (4 encoded bytes).
func (b *Buffer) PkInt(v int) *Buffer {
	b.add(item{kind: kindInt, i: v})
	b.bytes += 4
	return b
}

// PkFloat64s appends a vector of float64s (8 bytes each + 4-byte count).
// The slice is carried by reference; callers must not mutate it afterwards.
func (b *Buffer) PkFloat64s(v []float64) *Buffer {
	b.add(item{kind: kindFloat64s, floats: v})
	b.bytes += 8*len(v) + 4
	return b
}

// PkBytes appends a byte slice (1 byte each + 4-byte count). Carried by
// reference.
func (b *Buffer) PkBytes(v []byte) *Buffer {
	b.add(item{kind: kindBytes, ref: v})
	b.bytes += len(v) + 4
	return b
}

// PkString appends a string (length-prefixed).
func (b *Buffer) PkString(s string) *Buffer {
	b.add(item{kind: kindString, str: s})
	b.bytes += len(s) + 4
	return b
}

// PkVirtual appends n virtual bytes: size-only bulk payload.
func (b *Buffer) PkVirtual(n int) *Buffer {
	if n < 0 {
		panic("core: negative virtual size")
	}
	b.add(item{kind: kindVirtual, i: n})
	b.bytes += n
	return b
}

// PkBuffer nests another message buffer (the UPVM library wraps an
// application message plus its own routing header into one process-level
// PVM message this way). The inner buffer is carried by reference.
func (b *Buffer) PkBuffer(inner *Buffer) *Buffer {
	b.add(item{kind: kindBuffer, ref: inner})
	b.bytes += inner.Bytes() + 4
	return b
}

// Reader returns a fresh cursor over the buffer. Multiple readers (e.g. the
// recipients of a broadcast) can unpack the same buffer independently.
func (b *Buffer) Reader() *Reader { return &Reader{buf: b} }

// Reset makes r a fresh cursor over b, as b.Reader() would return. A
// receiver that holds a Reader by value (pvm.Message, upvm.UMessage) hands
// out a cursor this way without allocating one.
func (r *Reader) Reset(b *Buffer) { *r = Reader{buf: b} }

// The codes a Reader's Err carries.
const (
	// CodeTypeMismatch: an Upk call met an item of another type.
	CodeTypeMismatch errs.Code = "core.type-mismatch"
	// CodePastEnd: an Upk call ran past the last item.
	CodePastEnd errs.Code = "core.past-end"
	// CodeOutOfRange: UpkIndex or UpkCount refused the integer it read.
	CodeOutOfRange errs.Code = "core.out-of-range"
)

// Reader unpacks items from a Buffer in packed order. Its error is sticky:
// the first failure — a type mismatch, a read past the end, or a range
// helper's refusal — is kept, and from then on every Upk call returns its
// zero value without advancing. A receiver therefore unpacks every field,
// checks Err once, and only then acts on what it read.
type Reader struct {
	buf *Buffer
	pos int
	err error
}

func (r *Reader) next(want itemKind) item {
	if r.err != nil {
		return item{}
	}
	if r.pos >= len(r.buf.items) {
		r.err = errs.Newf(CodePastEnd, "core: unpack %v past end of buffer (%d items)", want, r.pos)
		return item{}
	}
	it := r.buf.items[r.pos]
	if it.kind != want {
		r.err = errs.Newf(CodeTypeMismatch, "core: unpack type mismatch: have %v, want %v at item %d",
			it.kind, want, r.pos)
		return item{}
	}
	r.pos++
	return it
}

// Err returns the reader's first failure, or nil if every Upk call so far
// succeeded.
func (r *Reader) Err() error { return r.err }

// UpkInt unpacks one integer.
func (r *Reader) UpkInt() int { return r.next(kindInt).i }

// UpkIndex unpacks an integer that must lie in [0, n): a host, rank or slot
// of a table n long. A value outside it fails the reader.
func (r *Reader) UpkIndex(n int) int {
	v := r.UpkInt()
	if r.err == nil && uint(v) >= uint(n) {
		r.err = errs.Newf(CodeOutOfRange, "core: item %d is %d, want an index in [0, %d)", r.pos-1, v, n)
		return 0
	}
	return v
}

// UpkCount unpacks an integer that must not be negative: a count or a size.
// A negative value fails the reader.
func (r *Reader) UpkCount() int {
	v := r.UpkInt()
	if r.err == nil && v < 0 {
		r.err = errs.Newf(CodeOutOfRange, "core: item %d is %d, want a count ≥ 0", r.pos-1, v)
		return 0
	}
	return v
}

// UpkFloat64s unpacks a float64 vector.
func (r *Reader) UpkFloat64s() []float64 { return r.next(kindFloat64s).floats }

// UpkBytes unpacks a byte slice.
func (r *Reader) UpkBytes() []byte {
	v, _ := r.next(kindBytes).ref.([]byte)
	return v
}

// UpkString unpacks a string.
func (r *Reader) UpkString() string { return r.next(kindString).str }

// UpkVirtual unpacks a virtual-bytes item, returning its size.
func (r *Reader) UpkVirtual() int { return r.next(kindVirtual).i }

// UpkBuffer unpacks a nested message buffer.
func (r *Reader) UpkBuffer() *Buffer {
	v, _ := r.next(kindBuffer).ref.(*Buffer)
	return v
}
