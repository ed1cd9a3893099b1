package opt

// ReferenceTrajectory computes — entirely serially — the exact per-iteration
// mean losses that the distributed master produces in Real mode with the
// given slave count: the same synthetic data, the same initial weights, the
// same shard decomposition, the same shard-ordered gradient reduction, and
// the same adaptive-step CG update. Tests compare the distributed runs
// (under PVM, MPVM, UPVM or ADM, with or without migrations) against this
// trajectory bitwise: any divergence means the message-passing or migration
// machinery corrupted the computation.
func ReferenceTrajectory(p Params, nSlaves int) []float64 {
	p = p.withDefaults()
	nEx := p.NumExemplars()
	set := GenerateExemplars(nEx, p.InputDim, p.Classes, p.Seed)
	net := NewNet(p.InputDim, p.Hidden, p.Classes, p.Seed+1)
	trainer := NewCGTrainer(net)

	counts := evenCounts(nEx, nSlaves)
	shards := make([]refRange, nSlaves)
	lo := 0
	for i, n := range counts {
		shards[i] = refRange{lo: lo, hi: lo + n}
		lo += n
	}

	var losses []float64
	step := initialStep
	prevLoss := 0.0
	for iter := 0; iter < p.Iterations; iter++ {
		total := NewGradient(net)
		var lossSum float64
		for _, sh := range shards {
			g := NewGradient(net)
			net.AccumulateGradient(set, sh.lo, sh.hi, g)
			local := set.Slice(sh.lo, sh.hi)
			lossSum += net.Loss(local) * float64(local.Len())
			total.Add(g)
		}
		meanLoss := lossSum / float64(nEx)
		losses = append(losses, meanLoss)
		grad := total.Flat()
		dir := trainer.Direction(grad)
		if p.LineSearch {
			referenceLineSearch(net, set, shards, grad, dir, lossSum, nEx)
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
	return losses
}

type refRange struct{ lo, hi int }

// referenceLineSearch mirrors distributedLineSearch exactly: the trial loss
// is accumulated shard by shard (in shard order) so the floating-point
// result matches the wire version bit for bit.
func referenceLineSearch(net *Net, set *ExemplarSet,
	shards []refRange, grad, dir []float64, lossSum0 float64, nEx int) {

	var slope float64
	for i := range grad {
		slope += grad[i] * dir[i]
	}
	if slope >= 0 {
		return
	}
	const c1 = 1e-4
	loss0 := lossSum0 / float64(nEx)
	base := net.Flat()
	step := 1.0
	probeNet := &Net{InputDim: net.InputDim, Hidden: net.Hidden, Classes: net.Classes,
		W1: make([]float64, len(net.W1)), B1: make([]float64, len(net.B1)),
		W2: make([]float64, len(net.W2)), B2: make([]float64, len(net.B2))}
	for try := 0; try < 12; try++ {
		trialFlat := make([]float64, len(base))
		for i := range base {
			trialFlat[i] = base[i] + step*dir[i]
		}
		probeNet.SetFlat(trialFlat)
		var trialSum float64
		for _, sh := range shards {
			local := set.Slice(sh.lo, sh.hi)
			trialSum += probeNet.Loss(local) * float64(local.Len())
		}
		trial := trialSum / float64(nEx)
		if trial <= loss0+c1*step*slope {
			net.SetFlat(trialFlat)
			return
		}
		step *= 0.5
	}
	net.SetFlat(base)
}
