// Package opt implements the paper's evaluation application: "Opt", a
// neural-network speech classifier trained by back-propagation and
// conjugate-gradient descent (§4.0, citing Barnard & Cole's conjugate-
// gradient optimization work).
//
// The package contains the *real* algorithm — a two-layer perceptron,
// full-batch back-propagation gradients, and Polak-Ribière conjugate
// gradient with a backtracking line search — plus a calibrated
// floating-point cost model, so that:
//
//   - correctness tests and cmd/opttrain run the actual numerics on
//     synthetic speech-like exemplars (the paper's proprietary training
//     sets are replaced by deterministic Gaussian class clusters with the
//     same vector layout: float features + a category scalar), and
//   - the simulation benchmarks charge the same computation as virtual
//     FLOPs against the simulated PA-RISC CPUs, moving the training data
//     as size-accounted messages.
//
// Parallel Opt (one master VP + N slave VPs) is written once against
// core.VP, so identical application code runs under plain PVM, MPVM and
// UPVM — the paper's source-compatibility claim. ADMopt is the data-
// parallel, FSM-structured variant built on package adm.
package opt

import (
	"fmt"
	"math"

	"pvmigrate/internal/sim"
)

// Net is a two-layer perceptron: InputDim → Hidden (tanh) → Classes
// (softmax). The paper describes the net as "simply a (large) matrix of
// floating point numbers"; the gradient is a matrix of the same shape.
type Net struct {
	InputDim, Hidden, Classes int
	// W1 is Hidden×InputDim, B1 is Hidden, W2 is Classes×Hidden, B2 is
	// Classes; all stored flat.
	W1, B1, W2, B2 []float64
}

// NewNet builds a network with small deterministic random weights.
func NewNet(inputDim, hidden, classes int, seed uint64) *Net {
	rng := sim.NewRNG(seed)
	n := &Net{
		InputDim: inputDim, Hidden: hidden, Classes: classes,
		W1: make([]float64, hidden*inputDim),
		B1: make([]float64, hidden),
		W2: make([]float64, classes*hidden),
		B2: make([]float64, classes),
	}
	scale1 := 1 / math.Sqrt(float64(inputDim))
	for i := range n.W1 {
		n.W1[i] = (rng.Float64()*2 - 1) * scale1
	}
	scale2 := 1 / math.Sqrt(float64(hidden))
	for i := range n.W2 {
		n.W2[i] = (rng.Float64()*2 - 1) * scale2
	}
	return n
}

// NumParams returns the total parameter count.
func (n *Net) NumParams() int {
	return len(n.W1) + len(n.B1) + len(n.W2) + len(n.B2)
}

// Bytes returns the network's size in bytes as shipped between VPs
// (single-precision floats, as on the 1994 testbed).
func (n *Net) Bytes() int { return n.NumParams() * 4 }

// Flat returns all parameters as one vector (copy).
func (n *Net) Flat() []float64 {
	out := make([]float64, 0, n.NumParams())
	out = append(out, n.W1...)
	out = append(out, n.B1...)
	out = append(out, n.W2...)
	out = append(out, n.B2...)
	return out
}

// SetFlat installs parameters from a flat vector.
func (n *Net) SetFlat(v []float64) error {
	if len(v) != n.NumParams() {
		return fmt.Errorf("opt: flat vector has %d values, net has %d params", len(v), n.NumParams())
	}
	i := 0
	i += copy(n.W1, v[i:i+len(n.W1)])
	i += copy(n.B1, v[i:i+len(n.B1)])
	i += copy(n.W2, v[i:i+len(n.W2)])
	copy(n.B2, v[i:])
	return nil
}

// forward computes hidden activations and class probabilities for one
// exemplar, reusing the provided scratch slices.
func (n *Net) forward(x []float64, hid, out []float64) {
	for h := 0; h < n.Hidden; h++ {
		sum := n.B1[h]
		row := n.W1[h*n.InputDim : (h+1)*n.InputDim]
		for d, xv := range x {
			sum += row[d] * xv
		}
		hid[h] = math.Tanh(sum)
	}
	maxLogit := math.Inf(-1)
	for c := 0; c < n.Classes; c++ {
		sum := n.B2[c]
		row := n.W2[c*n.Hidden : (c+1)*n.Hidden]
		for h, hv := range hid {
			sum += row[h] * hv
		}
		out[c] = sum
		if sum > maxLogit {
			maxLogit = sum
		}
	}
	var z float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxLogit)
		z += out[c]
	}
	for c := range out {
		out[c] /= z
	}
}

// Classify returns the most probable class for x.
func (n *Net) Classify(x []float64) int {
	hid := make([]float64, n.Hidden)
	out := make([]float64, n.Classes)
	n.forward(x, hid, out)
	best := 0
	for c := 1; c < n.Classes; c++ {
		if out[c] > out[best] {
			best = c
		}
	}
	return best
}

// Loss returns the mean cross-entropy of the net over the exemplars.
func (n *Net) Loss(set *ExemplarSet) float64 {
	hid := make([]float64, n.Hidden)
	out := make([]float64, n.Classes)
	var total float64
	for i := 0; i < set.Len(); i++ {
		x, label := set.Exemplar(i)
		n.forward(x, hid, out)
		p := out[label]
		if p < 1e-300 {
			p = 1e-300
		}
		total += -math.Log(p)
	}
	return total / float64(set.Len())
}

// Gradient is a parameter-shaped accumulator.
type Gradient struct {
	W1, B1, W2, B2 []float64
	Count          int // exemplars accumulated
}

// NewGradient returns a zero gradient shaped like n.
func NewGradient(n *Net) *Gradient {
	return &Gradient{
		W1: make([]float64, len(n.W1)),
		B1: make([]float64, len(n.B1)),
		W2: make([]float64, len(n.W2)),
		B2: make([]float64, len(n.B2)),
	}
}

// zero resets the accumulator for reuse.
func (g *Gradient) zero() {
	clear(g.W1)
	clear(g.B1)
	clear(g.W2)
	clear(g.B2)
	g.Count = 0
}

// Add accumulates another gradient (fixed order keeps parallel reductions
// deterministic).
func (g *Gradient) Add(o *Gradient) {
	for i := range g.W1 {
		g.W1[i] += o.W1[i]
	}
	for i := range g.B1 {
		g.B1[i] += o.B1[i]
	}
	for i := range g.W2 {
		g.W2[i] += o.W2[i]
	}
	for i := range g.B2 {
		g.B2[i] += o.B2[i]
	}
	g.Count += o.Count
}

// Flat returns the gradient as one vector (mean over exemplars).
func (g *Gradient) Flat() []float64 {
	n := float64(g.Count)
	if n == 0 {
		n = 1
	}
	out := make([]float64, 0, len(g.W1)+len(g.B1)+len(g.W2)+len(g.B2))
	for _, s := range [][]float64{g.W1, g.B1, g.W2, g.B2} {
		for _, v := range s {
			out = append(out, v/n)
		}
	}
	return out
}

// AccumulateGradient adds the back-propagation gradient of the cross-
// entropy loss over the set's exemplars [lo, hi) into g.
func (n *Net) AccumulateGradient(set *ExemplarSet, lo, hi int, g *Gradient) {
	hid := make([]float64, n.Hidden)
	out := make([]float64, n.Classes)
	dHid := make([]float64, n.Hidden)
	for i := lo; i < hi; i++ {
		x, label := set.Exemplar(i)
		n.forward(x, hid, out)
		// dL/dlogit_c = p_c - 1{c==label}
		for h := range dHid {
			dHid[h] = 0
		}
		for c := 0; c < n.Classes; c++ {
			delta := out[c]
			if c == label {
				delta -= 1
			}
			g.B2[c] += delta
			row := n.W2[c*n.Hidden : (c+1)*n.Hidden]
			grow := g.W2[c*n.Hidden : (c+1)*n.Hidden]
			for h, hv := range hid {
				grow[h] += delta * hv
				dHid[h] += delta * row[h]
			}
		}
		for h := 0; h < n.Hidden; h++ {
			dAct := dHid[h] * (1 - hid[h]*hid[h]) // tanh'
			g.B1[h] += dAct
			grow := g.W1[h*n.InputDim : (h+1)*n.InputDim]
			for d, xv := range x {
				grow[d] += dAct * xv
			}
		}
		g.Count++
	}
}
