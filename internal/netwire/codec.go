package netwire

import "pvmigrate/internal/wirefmt"

// WireCodec marshals the `Payload any` field of simulated frames for the
// trip through a real socket. Implementations must be stateless per call:
// each AppendEncode produces a self-contained blob (frames are decoded
// out of order and independently, so a streaming encoder that amortizes
// type descriptors across messages would corrupt the second decode).
//
// AppendEncode is append-style so the transport can reuse one scratch
// buffer across frames: the steady-state encode path of the default
// BinaryCodec performs zero allocations once the buffer has grown to the
// working set (pinned by TestBinaryEncodeZeroAlloc).
type WireCodec interface {
	// AppendEncode appends payload's encoding to dst and returns the
	// extended slice. On error dst is returned at its original length.
	AppendEncode(dst []byte, payload any) ([]byte, error)
	// Decode parses one blob produced by AppendEncode. It must never
	// panic on malformed input.
	Decode(data []byte) (any, error)
}

// BinaryCodec is the default codec: the explicit, versioned, zero-alloc
// binary format of internal/wirefmt (magic/version/tag/length header,
// little-endian field encodings, per-package type-tag registry). Protocol
// packages register their types with wirefmt from init.
type BinaryCodec struct{}

// AppendEncode implements WireCodec.
func (BinaryCodec) AppendEncode(dst []byte, payload any) ([]byte, error) {
	return wirefmt.Append(dst, payload)
}

// Decode implements WireCodec.
func (BinaryCodec) Decode(data []byte) (any, error) {
	return wirefmt.Decode(data)
}
