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

// FuzzFTPayloadDecode drives the decoders the ft protocol actually runs —
// the (epoch, iteration) stamp, and behind it the opt cores' Master.Absorb,
// Slave.LoadShard and Slave.LoadNet — with arbitrary item sequences in both modes: short
// payloads, wrong item types, empty slices (the historical pl[0] panic in
// the gradient decoder every master shares), a shard whose feature, label
// and announced counts disagree, an out-of-range label and a gradient or
// net of the wrong shape must all surface as errors.
func FuzzFTPayloadDecode(f *testing.F) {
	// A well-formed cost-model gradient reply, a Real-mode one, an empty
	// buffer, and a reply whose loss slice is empty.
	f.Add([]byte{0, 1, 0, 1, 5, 1, 0, 10, 2, 3})
	f.Add([]byte{0, 1, 0, 2, 1, 1, 7, 0, 5, 1, 2, 1, 2, 3, 1, 2, 9, 9, 1, 1, 4})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 1})
	// Real-mode shards (dim 2, 2 classes): two exemplars announced with one
	// feature value; one exemplar labelled 5.
	f.Add([]byte{0, 2, 2, 24, 1, 1, 7, 1, 2, 0, 1})
	f.Add([]byte{0, 1, 2, 12, 1, 2, 3, 4, 1, 1, 5})
	modes := []opt.Params{
		{Real: true, InputDim: 2, Hidden: 2, Classes: 2, TotalBytes: 120},
		{Real: false},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := buildFuzzBuffer(data)
		for _, p := range modes {
			// The master's tagGrad receive path.
			master, err := opt.NewMaster(p, 2)
			if err != nil {
				t.Fatal(err)
			}
			master.PackNet(core.NewBuffer())
			r := buf.Reader()
			r.UpkInt() // the (epoch, iteration) stamp
			r.UpkInt()
			if r.Err() == nil {
				_ = master.Absorb(r)
			}
			// The slave's tagShard and tagNet receive paths.
			sl := opt.NewSlave(p)
			_ = sl.LoadShard(buf.Reader())
			r = buf.Reader()
			r.UpkInt() // the epoch
			_, _ = sl.LoadNet(r)
		}
	})
}
