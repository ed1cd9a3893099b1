package opt

import (
	"errors"
	"testing"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
)

// quietVP is a VP on which compute and sends are free and the only messages
// that ever arrive are the scripted ones, handed out in order whatever Recv
// asks for: enough to drive admSlave.iterate through a cost-model iteration,
// the master core through its steps, and any driver up to a scripted
// malformed message.
type quietVP struct {
	core.VP
	computes int
	inbox    []scripted
	host     *cluster.Host
}

type scripted struct {
	src core.TID
	tag int
	buf *core.Buffer
}

var errScriptEnd = errors.New("quietVP: script exhausted")

func (v *quietVP) Compute(float64) error { v.computes++; return nil }

func (v *quietVP) Send(core.TID, int, *core.Buffer) error { return nil }

func (v *quietVP) Recv(core.TID, int) (core.TID, int, *core.Reader, error) {
	if len(v.inbox) == 0 {
		return core.NoTID, 0, nil, errScriptEnd
	}
	m := v.inbox[0]
	v.inbox = v.inbox[1:]
	return m.src, m.tag, m.buf.Reader(), nil
}

func (v *quietVP) NRecv(core.TID, int) (core.TID, int, *core.Reader, bool, error) {
	return core.NoTID, 0, nil, false, nil
}

func (v *quietVP) Host() *cluster.Host { return v.host }

// TestADMSlaveChunkLoopZeroAlloc: in cost-model mode a whole iteration —
// every chunk's search, flag checks and marks — allocates nothing.
func TestADMSlaveChunkLoopZeroAlloc(t *testing.T) {
	ap := ADMParams{}.withDefaults()
	const n = 1050 // ten full chunks and a short one
	vp := &quietVP{}
	s := &admSlave{
		Slave: NewSlave(ap.Params),
		vp:    vp, events: &adm.EventQueue{}, ap: ap,
		shard: adm.NewShard(500, 500+n),
	}
	iteration := func() {
		s.cursor, s.processed = 0, 0
		s.shard.Reset()
		if err := s.iterate(); err != nil {
			t.Fatal(err)
		}
	}
	iteration()
	vp.computes = 0
	allocs := testing.AllocsPerRun(20, iteration)
	if allocs != 0 {
		t.Fatalf("cost-model iteration allocates %v per run, want 0", allocs)
	}
	if s.processed != n || vp.computes != 21*11 {
		t.Fatalf("processed %d exemplars in %d chunks, want %d in %d", s.processed, vp.computes, n, 21*11)
	}
}
