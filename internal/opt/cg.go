package opt

// CGTrainer implements the paper's outer loop: apply the net to the
// exemplars to obtain a gradient, use the gradient to modify the net,
// repeat until error passes a threshold or a predetermined number of
// iterations has been performed. The direction update is Polak-Ribière
// conjugate gradient with automatic restarts, and steps are chosen by a
// backtracking (Armijo) line search on the loss.
type CGTrainer struct {
	Net *Net

	prevGrad []float64
	dir      []float64
}

// NewCGTrainer wraps a network.
func NewCGTrainer(n *Net) *CGTrainer { return &CGTrainer{Net: n} }

// Direction consumes a fresh (mean) gradient and returns the CG search
// direction, applying the Polak-Ribière update with restart on
// non-descent.
func (t *CGTrainer) Direction(grad []float64) []float64 {
	if t.dir == nil {
		t.prevGrad = append([]float64(nil), grad...)
		t.dir = make([]float64, len(grad))
		for i, g := range grad {
			t.dir[i] = -g
		}
		return t.dir
	}
	// beta_PR = g·(g - g_prev) / (g_prev·g_prev)
	var num, den float64
	for i, g := range grad {
		num += g * (g - t.prevGrad[i])
		den += t.prevGrad[i] * t.prevGrad[i]
	}
	beta := 0.0
	if den > 0 {
		beta = num / den
	}
	if beta < 0 {
		beta = 0 // PR+ restart
	}
	var descent float64
	for i, g := range grad {
		t.dir[i] = -g + beta*t.dir[i]
		descent += t.dir[i] * g
	}
	if descent >= 0 { // not a descent direction: restart with steepest descent
		for i, g := range grad {
			t.dir[i] = -g
		}
	}
	copy(t.prevGrad, grad)
	return t.dir
}

// TrainerState is a deep copy of the trainer's CG memory (previous gradient
// and search direction), for checkpoint/rollback: restoring it and the net
// replays training bit-for-bit from the snapshot point.
type TrainerState struct {
	PrevGrad []float64
	Dir      []float64
}

// Snapshot captures the CG memory.
func (t *CGTrainer) Snapshot() TrainerState {
	return TrainerState{
		PrevGrad: append([]float64(nil), t.prevGrad...),
		Dir:      append([]float64(nil), t.dir...),
	}
}

// Restore rewinds the CG memory to a snapshot.
func (t *CGTrainer) Restore(s TrainerState) {
	t.prevGrad = append([]float64(nil), s.PrevGrad...)
	t.dir = append([]float64(nil), s.Dir...)
}

// LineSearch finds a step along dir that satisfies the Armijo condition,
// evaluating the loss on the given set (forward passes only — much cheaper
// than gradients). It returns the accepted step and the resulting loss, and
// leaves the net updated.
func (t *CGTrainer) LineSearch(set *ExemplarSet, grad, dir []float64) (float64, float64) {
	n := t.Net
	base := n.Flat()
	loss0 := n.Loss(set)
	var slope float64
	for i := range grad {
		slope += grad[i] * dir[i]
	}
	if slope >= 0 {
		// Defensive: should not happen after Direction's restart logic.
		return 0, loss0
	}
	const c1 = 1e-4
	step := 1.0
	trial := make([]float64, len(base))
	for iter := 0; iter < 30; iter++ {
		for i := range base {
			trial[i] = base[i] + step*dir[i]
		}
		n.SetFlat(trial)
		loss := n.Loss(set)
		if loss <= loss0+c1*step*slope {
			return step, loss
		}
		step *= 0.5
	}
	// No improving step found: keep the original parameters.
	n.SetFlat(base)
	return 0, loss0
}

// Step runs one full training iteration on the set (gradient over all
// exemplars, CG direction, line search) and returns the post-step loss.
func (t *CGTrainer) Step(set *ExemplarSet) float64 {
	g := NewGradient(t.Net)
	t.Net.AccumulateGradient(set, 0, set.Len(), g)
	grad := g.Flat()
	dir := t.Direction(grad)
	_, loss := t.LineSearch(set, grad, dir)
	return loss
}

// Accuracy returns the net's classification accuracy on the set.
func (t *CGTrainer) Accuracy(set *ExemplarSet) float64 {
	correct := 0
	for i := 0; i < set.Len(); i++ {
		x, label := set.Exemplar(i)
		if t.Net.Classify(x) == label {
			correct++
		}
	}
	return float64(correct) / float64(set.Len())
}
