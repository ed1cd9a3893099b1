package opt

import (
	"testing"

	"pvmigrate/internal/core"
)

// TestMasterCostModelIterationAllocs: one cost-model iteration of the master
// core — pack the net, absorb every reply, update — allocates the broadcast
// buffer and nothing else: in particular no net and no gradient accumulator
// (40 KiB at 64→32→16), which cost-model mode never reads. The count is the
// same for a net sixteen times the size.
func TestMasterCostModelIterationAllocs(t *testing.T) {
	const nSlaves = 4
	perIteration := func(p Params) float64 {
		m, err := NewMaster(p, nSlaves)
		if err != nil {
			t.Fatal(err)
		}
		vp := &quietVP{}
		reply := core.NewBuffer()
		NewSlave(p).packReply(reply, 0, nil, 100)
		readers := make([]core.Reader, nSlaves)
		return testing.AllocsPerRun(50, func() {
			m.PackNet(core.NewBuffer())
			for i := range readers {
				readers[i] = *reply.Reader()
				if err := m.Absorb(&readers[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Update(vp); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := perIteration(Params{})
	large := perIteration(Params{InputDim: 256, Hidden: 128, Classes: 64})
	// The buffer, and its item list grown once from one item to two.
	if small > 3 || large != small {
		t.Fatalf("cost-model iteration allocates %v times (64→32→16) and %v (256→128→64), want ≤ 3 and equal",
			small, large)
	}
}

// TestMasterRestoreReplaysBitwise: the property ft's rollback rests on,
// without a cluster. A real-mode master driven by in-process slave cores is
// snapshotted, run two iterations, restored and run two again; the replay's
// losses equal the first pass bit for bit, and the whole history equals the
// serial reference.
func TestMasterRestoreReplaysBitwise(t *testing.T) {
	const nSlaves = 3
	p := Params{Real: true, TotalBytes: 60_000, Iterations: 6, Seed: 5}
	m, err := NewMaster(p, nSlaves)
	if err != nil {
		t.Fatal(err)
	}
	vp := &quietVP{}
	slaves := make([]*Slave, nSlaves)
	for i := range slaves {
		slaves[i] = NewSlave(p)
		if err := slaves[i].LoadShard(m.PackShard(core.NewBuffer(), i).Reader()); err != nil {
			t.Fatal(err)
		}
	}
	iterate := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			net := m.PackNet(core.NewBuffer())
			for _, s := range slaves {
				reply := core.NewBuffer()
				if _, err := s.LoadNet(net.Reader()); err != nil {
					t.Fatal(err)
				}
				if err := s.PackGradient(vp, reply); err != nil {
					t.Fatal(err)
				}
				if err := m.Absorb(reply.Reader()); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Update(vp); err != nil {
				t.Fatal(err)
			}
		}
	}
	iterate(2)
	snap := m.Snapshot()
	iterate(2)
	first := append([]float64(nil), m.Result().Losses...)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.Iter() != 2 || len(m.Result().Losses) != 2 {
		t.Fatalf("restored to iteration %d with %d losses, want 2 and 2", m.Iter(), len(m.Result().Losses))
	}
	iterate(2)
	for i, l := range m.Result().Losses {
		if l != first[i] {
			t.Fatalf("replayed loss %d = %v, first pass %v", i, l, first[i])
		}
	}
	iterate(2)
	if !m.Done() {
		t.Fatalf("not done after %d iterations", m.Iter())
	}
	ref := ReferenceTrajectory(p, nSlaves)
	for i, l := range m.Result().Losses {
		if l != ref[i] {
			t.Fatalf("loss %d = %v, serial reference %v", i, l, ref[i])
		}
	}
}
