package opt

import (
	"fmt"

	"pvmigrate/internal/core"
)

// Message tags of the parallel Opt protocol.
const (
	TagShard = 11 // master → slave: initial exemplar shard
	TagNet   = 12 // master → slave: current network, start an iteration
	TagGrad  = 13 // slave → master: partial gradient + partial loss
	TagDone  = 14 // master → slave: training finished
)

// Params configures a parallel Opt run.
type Params struct {
	// Network shape. The defaults (64→32→16) model a speech classifier
	// whose exemplars are 64 floats + a category.
	InputDim, Hidden, Classes int
	// TotalBytes is the training-set size (the paper's per-experiment MB).
	TotalBytes int
	// Iterations is the predetermined iteration count (§4.0).
	Iterations int
	// Seed drives synthetic data and weight init.
	Seed uint64
	// Real carries and crunches actual exemplar data (small sets only);
	// otherwise only sizes move and work is charged to the virtual CPU.
	Real bool
	// Overhead multiplies per-exemplar compute cost (ADMopt ≈ 1.23).
	Overhead float64
	// OnStateBytes, if set, is told the slave's resident state size once
	// the shard arrives — MPVM uses it to size the migratable image.
	OnStateBytes func(bytes int)
}

// initialStep is the first update step; §4.0's apply/modify rule adapts it
// during training.
const initialStep float64 = 0.5

func (p Params) withDefaults() Params {
	if p.InputDim == 0 {
		p.InputDim = 64
	}
	if p.Hidden == 0 {
		p.Hidden = 32
	}
	if p.Classes == 0 {
		p.Classes = 16
	}
	if p.TotalBytes == 0 {
		p.TotalBytes = 600_000
	}
	if p.Iterations == 0 {
		p.Iterations = 4
	}
	if p.Overhead == 0 {
		p.Overhead = 1.0
	}
	return p
}

// Cost returns the parameterized cost model.
func (p Params) Cost() CostModel {
	p = p.withDefaults()
	return CostModel{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes,
		OverheadFactor: p.Overhead}
}

// NumExemplars returns the exemplar count implied by TotalBytes.
func (p Params) NumExemplars() int {
	p = p.withDefaults()
	n := p.TotalBytes / ExemplarBytes(p.InputDim)
	if n < 1 {
		n = 1
	}
	return n
}

// Result summarizes a master's run.
type Result struct {
	Iterations int
	// FinalLoss is the last mean loss. No loss exists in cost-model mode:
	// RunMaster and RunADMMaster leave it 0 there, ft.Job reports NaN.
	FinalLoss float64
	Losses    []float64
}

// RunMaster executes the master VP: distribute exemplar shards, then per
// iteration broadcast the net, collect partial gradients (in fixed slave
// order, for deterministic reduction), combine, and update with a CG
// direction and an adaptive step (§4.0's two-step apply/modify loop).
func RunMaster(vp core.VP, slaves []core.TID, p Params) (*Result, error) {
	m, err := NewMaster(p, len(slaves))
	if err != nil {
		return nil, err
	}
	for i, s := range slaves {
		if err := vp.Send(s, TagShard, m.PackShard(core.NewBuffer(), i)); err != nil {
			return nil, fmt.Errorf("opt: shard to %v: %w", s, err)
		}
	}
	for !m.Done() {
		netBuf := m.PackNet(core.NewBuffer())
		for _, s := range slaves {
			if err := vp.Send(s, TagNet, netBuf); err != nil {
				return nil, err
			}
		}
		for _, s := range slaves {
			_, _, r, err := vp.Recv(s, TagGrad)
			if err != nil {
				return nil, fmt.Errorf("opt: gradient from %v: %w", s, err)
			}
			if err := m.Absorb(r); err != nil {
				return nil, err
			}
		}
		if err := m.Update(vp); err != nil {
			return nil, err
		}
	}
	done := core.NewBuffer().PkInt(-1)
	for _, s := range slaves {
		if err := vp.Send(s, TagDone, done); err != nil {
			return nil, err
		}
	}
	return m.Result(), nil
}

// evenCounts splits total exemplars across n slaves as evenly as possible,
// the first total%n slaves taking one more. The master core and the serial
// reference both shard with it.
func evenCounts(total, n int) []int {
	counts := make([]int, n)
	base := total / n
	rem := total % n
	for i := range counts {
		counts[i] = base
		if i < rem {
			counts[i]++
		}
	}
	return counts
}

// RunSlave executes a slave VP: receive the shard, then per iteration
// receive the net, compute the partial gradient over the local exemplars
// (charged to the virtual CPU; with Real data the actual backprop runs
// too), and return it with the partial loss.
func RunSlave(vp core.VP, master core.TID, p Params) error {
	_, _, r, err := vp.Recv(master, TagShard)
	if err != nil {
		return fmt.Errorf("opt: slave shard: %w", err)
	}
	s := NewSlave(p)
	if err := s.LoadShard(r); err != nil {
		return err
	}
	for {
		_, tag, r, err := vp.Recv(master, core.AnyTag)
		if err != nil {
			return err
		}
		switch tag {
		case TagDone:
			return nil
		case TagNet:
			if _, err := s.LoadNet(r); err != nil {
				return err
			}
			gradBuf := core.NewBuffer()
			if err := s.PackGradient(vp, gradBuf); err != nil {
				return err
			}
			if err := vp.Send(master, TagGrad, gradBuf); err != nil {
				return err
			}
		}
	}
}
