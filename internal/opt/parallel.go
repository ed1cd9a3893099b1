package opt

import (
	"errors"
	"fmt"

	"pvmigrate/internal/core"
)

// Message tags of the parallel Opt protocol.
const (
	TagShard = 11 // master → slave: initial exemplar shard
	TagNet   = 12 // master → slave: current network, start an iteration
	TagGrad  = 13 // slave → master: partial gradient + partial loss
	TagDone  = 14 // master → slave: training finished
	TagProbe = 15 // master → slave: line-search trial point (direction+step)
	TagLoss  = 16 // slave → master: partial loss at the trial point
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
	// Step is the initial update step (adapted during training).
	Step float64
	// LineSearch enables the distributed Armijo line search: instead of a
	// fixed adaptive step, the master broadcasts trial points and the
	// slaves evaluate partial losses — extra protocol rounds per iteration,
	// but the same monotone descent guarantee as the serial trainer.
	LineSearch bool
	// OnStateBytes, if set, is told the slave's resident state size once
	// the shard arrives — MPVM uses it to size the migratable image.
	OnStateBytes func(bytes int)
}

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
	if p.Step == 0 {
		p.Step = 0.5
	}
	if p.Overhead == 0 {
		p.Overhead = 1.0
	}
	return p
}

// WithDefaults returns the params with unset fields filled in — for callers
// outside the package (internal/ft) that re-implement the master/slave loop
// and must agree with RunMaster on every defaulted value.
func (p Params) WithDefaults() Params { return p.withDefaults() }

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
	FinalLoss  float64 // NaN in cost-model mode
	Losses     []float64
}

// RunMaster executes the master VP: distribute exemplar shards, then per
// iteration broadcast the net, collect partial gradients (in fixed slave
// order, for deterministic reduction), combine, and update with a CG
// direction and an adaptive step (§4.0's two-step apply/modify loop).
func RunMaster(vp core.VP, slaves []core.TID, p Params) (*Result, error) {
	p = p.withDefaults()
	if len(slaves) == 0 {
		return nil, errors.New("opt: master needs at least one slave")
	}
	cost := p.Cost()
	nEx := p.NumExemplars()

	var set *ExemplarSet
	var net *Net
	var trainer *CGTrainer
	if p.Real {
		set = GenerateExemplars(nEx, p.InputDim, p.Classes, p.Seed)
		net = NewNet(p.InputDim, p.Hidden, p.Classes, p.Seed+1)
		trainer = NewCGTrainer(net)
	}

	// Distribute shards ("data is equally distributed among the slaves").
	counts := EvenCounts(nEx, len(slaves))
	lo := 0
	for i, s := range slaves {
		n := counts[i]
		buf := core.NewBuffer().PkInt(n).PkVirtual(n * ExemplarBytes(p.InputDim))
		if p.Real {
			shard := set.Slice(lo, lo+n)
			buf.PkFloat64s(shard.features)
			labels := make([]float64, n)
			for j, l := range shard.labels {
				labels[j] = float64(l)
			}
			buf.PkFloat64s(labels)
		}
		if err := vp.Send(s, TagShard, buf); err != nil {
			return nil, fmt.Errorf("opt: shard to %v: %w", s, err)
		}
		lo += n
	}

	res := &Result{}
	step := p.Step
	prevLoss := 0.0
	var flatNet []float64
	for iter := 0; iter < p.Iterations; iter++ {
		netBuf := core.NewBuffer().PkInt(iter).PkVirtual(cost.NetBytes())
		if p.Real {
			flatNet = net.Flat()
			netBuf.PkFloat64s(flatNet)
		}
		for _, s := range slaves {
			if err := vp.Send(s, TagNet, netBuf); err != nil {
				return nil, err
			}
		}
		// Collect partial gradients in fixed order.
		total := NewGradient(&Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes,
			W1: make([]float64, p.Hidden*p.InputDim), B1: make([]float64, p.Hidden),
			W2: make([]float64, p.Classes*p.Hidden), B2: make([]float64, p.Classes)})
		var lossSum float64
		for _, s := range slaves {
			_, _, r, err := vp.Recv(s, TagGrad)
			if err != nil {
				return nil, fmt.Errorf("opt: gradient from %v: %w", s, err)
			}
			pl, cnt, g, err := UnpackGradient(r, p)
			if err != nil {
				return nil, err
			}
			lossSum += pl
			if p.Real {
				total.Add(g)
			} else {
				total.Count += cnt
			}
		}
		// Combine + CG update.
		if err := vp.Compute(cost.UpdateFlops(len(slaves))); err != nil {
			return nil, err
		}
		if p.Real {
			meanLoss := lossSum / float64(nEx)
			res.Losses = append(res.Losses, meanLoss)
			res.FinalLoss = meanLoss
			grad := total.Flat()
			dir := trainer.Direction(grad)
			if p.LineSearch {
				accepted, err := distributedLineSearch(vp, slaves, p, net, grad, dir, lossSum, nEx)
				if err != nil {
					return nil, err
				}
				_ = accepted
			} else {
				if iter > 0 && meanLoss > prevLoss {
					step *= 0.5
				}
				prevLoss = meanLoss
				flat := net.Flat()
				for i := range flat {
					flat[i] += step * dir[i]
				}
				net.SetFlat(flat)
			}
		}
		res.Iterations++
	}
	done := core.NewBuffer().PkInt(-1)
	for _, s := range slaves {
		if err := vp.Send(s, TagDone, done); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// distributedLineSearch runs the Armijo backtracking loop over the wire:
// the master broadcasts (direction, step) trial points; every slave
// evaluates the loss of its shard at the trial weights and returns the
// partial sum. The accepted step updates the master's net; slaves learn the
// final weights with the next TagNet broadcast. Returns the accepted step
// (0 when no improving step was found, leaving the net unchanged).
func distributedLineSearch(vp core.VP, slaves []core.TID, p Params,
	net *Net, grad, dir []float64, lossSum0 float64, nEx int) (float64, error) {

	var slope float64
	for i := range grad {
		slope += grad[i] * dir[i]
	}
	if slope >= 0 {
		return 0, nil // defensive; Direction restarts on non-descent
	}
	const c1 = 1e-4
	loss0 := lossSum0 / float64(nEx)
	base := net.Flat()
	step := 1.0
	for try := 0; try < 12; try++ {
		probe := core.NewBuffer().PkFloat64s([]float64{step}).PkFloat64s(dir).
			PkVirtual(len(dir) * 4)
		for _, s := range slaves {
			if err := vp.Send(s, TagProbe, probe); err != nil {
				return 0, err
			}
		}
		var trialSum float64
		for range slaves {
			_, _, r, err := vp.Recv(core.AnyTID, TagLoss)
			if err != nil {
				return 0, err
			}
			v, err := r.UpkFloat64s()
			if err != nil {
				return 0, err
			}
			trialSum += v[0]
		}
		trial := trialSum / float64(nEx)
		if trial <= loss0+c1*step*slope {
			flat := make([]float64, len(base))
			for i := range base {
				flat[i] = base[i] + step*dir[i]
			}
			net.SetFlat(flat)
			return step, nil
		}
		step *= 0.5
	}
	net.SetFlat(base)
	return 0, nil
}

// EvenCounts splits total exemplars across n slaves as evenly as possible,
// the first total%n slaves taking one more. Every master (RunMaster,
// RunADMMaster, ft.Job, the serial reference) shards with it.
func EvenCounts(total, n int) []int {
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
	p = p.withDefaults()
	cost := p.Cost()

	_, _, r, err := vp.Recv(master, TagShard)
	if err != nil {
		return fmt.Errorf("opt: slave shard: %w", err)
	}
	count, err := r.UpkInt()
	if err != nil {
		return err
	}
	shardBytes, err := r.UpkVirtual()
	if err != nil {
		return err
	}
	var local *ExemplarSet
	if p.Real {
		feats, err := r.UpkFloat64s()
		if err != nil {
			return err
		}
		flabels, err := r.UpkFloat64s()
		if err != nil {
			return err
		}
		labels := make([]int, len(flabels))
		for i, f := range flabels {
			labels[i] = int(f)
		}
		local = &ExemplarSet{Dim: p.InputDim, Classes: p.Classes,
			features: feats, labels: labels, ids: make([]int, count)}
	}
	if p.OnStateBytes != nil {
		p.OnStateBytes(shardBytes + cost.NetBytes())
	}

	net := &Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes}
	for {
		_, tag, r, err := vp.Recv(master, core.AnyTag)
		if err != nil {
			return err
		}
		if tag == TagDone {
			return nil
		}
		if tag == TagProbe {
			if err := answerProbe(vp, master, p, cost, net, local, count, r); err != nil {
				return err
			}
			continue
		}
		if tag != TagNet {
			continue
		}
		if _, err := r.UpkInt(); err != nil { // iteration number
			return err
		}
		if _, err := r.UpkVirtual(); err != nil {
			return err
		}
		if p.Real {
			flat, err := r.UpkFloat64s()
			if err != nil {
				return err
			}
			if net.W1 == nil {
				net.W1 = make([]float64, p.Hidden*p.InputDim)
				net.B1 = make([]float64, p.Hidden)
				net.W2 = make([]float64, p.Classes*p.Hidden)
				net.B2 = make([]float64, p.Classes)
			}
			if err := net.SetFlat(flat); err != nil {
				return err
			}
		}
		// Apply the net to the local exemplars: the dominant cost.
		if err := vp.Compute(cost.GradientFlops(count)); err != nil {
			return err
		}
		gradBuf := core.NewBuffer()
		var partialLoss float64
		if p.Real {
			g := NewGradient(net)
			net.AccumulateGradient(local, 0, local.Len(), g)
			partialLoss = net.Loss(local) * float64(local.Len())
			packGradient(gradBuf, partialLoss, g)
		} else {
			gradBuf.PkFloat64s([]float64{0}).PkInt(count).PkVirtual(cost.NetBytes())
		}
		if err := vp.Send(master, TagGrad, gradBuf); err != nil {
			return err
		}
	}
}

func packGradient(buf *core.Buffer, partialLoss float64, g *Gradient) {
	buf.PkFloat64s([]float64{partialLoss}).PkInt(g.Count)
	buf.PkFloat64s(g.W1).PkFloat64s(g.B1).PkFloat64s(g.W2).PkFloat64s(g.B2)
}

// UnpackGradient reads a gradient reply in packGradient's layout (in
// cost-model mode: loss, count, virtual bytes). It is the one decoder behind
// every master's receive path, ft.Job's included.
func UnpackGradient(r *core.Reader, p Params) (partialLoss float64, count int, g *Gradient, err error) {
	pl, err := r.UpkFloat64s()
	if err != nil {
		return 0, 0, nil, err
	}
	if len(pl) == 0 {
		// A well-formed reply always carries exactly one partial loss; an
		// empty slice is a malformed payload, not a crash.
		return 0, 0, nil, errors.New("opt: gradient reply carries no partial loss")
	}
	count, err = r.UpkInt()
	if err != nil {
		return 0, 0, nil, err
	}
	if !p.Real {
		if _, err := r.UpkVirtual(); err != nil {
			return 0, 0, nil, err
		}
		return pl[0], count, nil, nil
	}
	g = &Gradient{Count: count}
	if g.W1, err = r.UpkFloat64s(); err != nil {
		return 0, 0, nil, err
	}
	if g.B1, err = r.UpkFloat64s(); err != nil {
		return 0, 0, nil, err
	}
	if g.W2, err = r.UpkFloat64s(); err != nil {
		return 0, 0, nil, err
	}
	if g.B2, err = r.UpkFloat64s(); err != nil {
		return 0, 0, nil, err
	}
	return pl[0], count, g, nil
}

// answerProbe evaluates the slave's partial loss at a line-search trial
// point (current weights + step × direction) and returns it to the master.
func answerProbe(vp core.VP, master core.TID, p Params, cost CostModel,
	net *Net, local *ExemplarSet, count int, r *core.Reader) error {

	stepV, err := r.UpkFloat64s()
	if err != nil {
		return err
	}
	dir, err := r.UpkFloat64s()
	if err != nil {
		return err
	}
	if _, err := r.UpkVirtual(); err != nil {
		return err
	}
	// A forward pass over the shard (cheaper than a gradient).
	if err := vp.Compute(float64(count) * cost.LossFlopsPerExemplar()); err != nil {
		return err
	}
	var partial float64
	if p.Real && local != nil {
		base := net.Flat()
		trial := make([]float64, len(base))
		for i := range base {
			trial[i] = base[i] + stepV[0]*dir[i]
		}
		probeNet := &Net{InputDim: net.InputDim, Hidden: net.Hidden, Classes: net.Classes,
			W1: make([]float64, len(net.W1)), B1: make([]float64, len(net.B1)),
			W2: make([]float64, len(net.W2)), B2: make([]float64, len(net.B2))}
		if err := probeNet.SetFlat(trial); err != nil {
			return err
		}
		partial = probeNet.Loss(local) * float64(local.Len())
	}
	return vp.Send(master, TagLoss, core.NewBuffer().PkFloat64s([]float64{partial}))
}
