package ft

import (
	"testing"

	"pvmigrate/internal/core"
	"pvmigrate/internal/opt"
)

// buildFuzzBuffer interprets fuzz input as a pack script: each step consumes
// a few bytes choosing an item kind and a small payload. This explores the
// space of structurally arbitrary (wrong-typed, short, empty-slice) payloads
// a confused or stale peer could deliver.
func buildFuzzBuffer(data []byte) *core.Buffer {
	buf := core.NewBuffer()
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op % 5 {
		case 0:
			n := 0
			if len(data) > 0 {
				n = int(int8(data[0]))
				data = data[1:]
			}
			buf.PkInt(n)
		case 1:
			n := 0
			if len(data) > 0 {
				n = int(data[0] % 9)
				data = data[1:]
			}
			fs := make([]float64, n)
			for i := range fs {
				if len(data) > 0 {
					fs[i] = float64(int8(data[0]))
					data = data[1:]
				}
			}
			buf.PkFloat64s(fs)
		case 2:
			n := 0
			if len(data) > 0 {
				n = int(data[0])
				data = data[1:]
			}
			buf.PkVirtual(n)
		case 3:
			buf.PkString("x")
		case 4:
			buf.PkBytes(nil)
		}
	}
	return buf
}

// decodeAsGradReply mirrors the master's tagGrad receive path: the (epoch,
// iteration) header, then the gradient body. Any malformed payload must come
// back as an error, never a panic.
func decodeAsGradReply(t *testing.T, buf *core.Buffer, p opt.Params) {
	t.Helper()
	r := buf.Reader()
	if _, err := r.UpkInt(); err != nil {
		return
	}
	if _, err := r.UpkInt(); err != nil {
		return
	}
	_, _, _, _ = opt.UnpackGradient(r, p)
}

// decodeAsCkptAck mirrors the master's tagCkptOK receive path.
func decodeAsCkptAck(t *testing.T, buf *core.Buffer) {
	t.Helper()
	r := buf.Reader()
	if _, err := r.UpkInt(); err != nil {
		return
	}
	_, _ = r.UpkInt()
}

// decodeAsNetCmd mirrors the slave's tagNet receive path in both modes.
func decodeAsNetCmd(t *testing.T, buf *core.Buffer, real bool) {
	t.Helper()
	r := buf.Reader()
	if _, err := r.UpkInt(); err != nil {
		return
	}
	if _, err := r.UpkInt(); err != nil {
		return
	}
	if _, err := r.UpkVirtual(); err != nil {
		return
	}
	if real {
		_, _ = r.UpkFloat64s()
	}
}

// FuzzFTPayloadDecode drives every ft protocol decode path with arbitrary
// item sequences: short payloads, wrong item types, and empty slices (the
// historical pl[0] panic in opt.UnpackGradient, the gradient decoder every
// master shares) must all surface as errors.
func FuzzFTPayloadDecode(f *testing.F) {
	// A well-formed cost-model gradient reply, a Real-mode one, an empty
	// buffer, and a reply whose loss slice is empty.
	f.Add([]byte{0, 1, 0, 1, 5, 1, 0, 10, 2, 3})
	f.Add([]byte{0, 1, 0, 2, 1, 1, 7, 0, 5, 1, 2, 1, 2, 3, 1, 2, 9, 9, 1, 1, 4})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 1})
	pReal := opt.Params{Real: true, InputDim: 2, Hidden: 2, Classes: 2}.WithDefaults()
	pCost := opt.Params{Real: false}.WithDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := buildFuzzBuffer(data)
		decodeAsGradReply(t, buf, pReal)
		decodeAsGradReply(t, buf, pCost)
		decodeAsCkptAck(t, buf)
		decodeAsNetCmd(t, buf, true)
		decodeAsNetCmd(t, buf, false)
	})
}
