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

	var losses []float64
	step := initialStep
	prevLoss := 0.0
	for iter := 0; iter < p.Iterations; iter++ {
		total := NewGradient(net)
		var lossSum float64
		lo := 0
		for _, n := range counts {
			g := NewGradient(net)
			net.AccumulateGradient(set, lo, lo+n, g)
			local := set.Slice(lo, lo+n)
			lossSum += net.Loss(local) * float64(local.Len())
			total.Add(g)
			lo += n
		}
		meanLoss := lossSum / float64(nEx)
		losses = append(losses, meanLoss)
		dir := trainer.Direction(total.Flat())
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
	return losses
}
