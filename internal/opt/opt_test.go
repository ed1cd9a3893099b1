package opt

import (
	"math"
	"testing"
	"testing/quick"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

func smallSet(t *testing.T) *ExemplarSet {
	t.Helper()
	return GenerateExemplars(240, 8, 4, 7)
}

func TestNetForwardProbabilities(t *testing.T) {
	n := NewNet(8, 6, 4, 1)
	hid := make([]float64, 6)
	out := make([]float64, 4)
	x := make([]float64, 8)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	n.forward(x, hid, out)
	var sum float64
	for _, p := range out {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", out)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %f", sum)
	}
}

func TestNetFlatRoundTrip(t *testing.T) {
	n := NewNet(5, 4, 3, 2)
	flat := n.Flat()
	if len(flat) != n.NumParams() {
		t.Fatalf("flat len = %d, params = %d", len(flat), n.NumParams())
	}
	c := NewNet(5, 4, 3, 99)
	if err := c.SetFlat(flat); err != nil {
		t.Fatal(err)
	}
	for i, v := range c.Flat() {
		if v != flat[i] {
			t.Fatal("flat round trip broke weights")
		}
	}
	if err := c.SetFlat(flat[:3]); err == nil {
		t.Fatal("short flat vector accepted")
	}
}

// Finite-difference check: the analytic backprop gradient matches numeric
// differentiation of the loss.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	set := GenerateExemplars(12, 4, 3, 3)
	n := NewNet(4, 5, 3, 4)
	g := NewGradient(n)
	n.AccumulateGradient(set, 0, set.Len(), g)
	grad := g.Flat()
	flat := n.Flat()
	const eps = 1e-6
	// Check a sample of coordinates.
	for _, idx := range []int{0, 3, len(flat) / 2, len(flat) - 1} {
		orig := flat[idx]
		flat[idx] = orig + eps
		n.SetFlat(flat)
		lossPlus := n.Loss(set)
		flat[idx] = orig - eps
		n.SetFlat(flat)
		lossMinus := n.Loss(set)
		flat[idx] = orig
		n.SetFlat(flat)
		numeric := (lossPlus - lossMinus) / (2 * eps)
		if math.Abs(numeric-grad[idx]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("coord %d: analytic %g vs numeric %g", idx, grad[idx], numeric)
		}
	}
}

func TestCGTrainingDecreasesLossMonotonically(t *testing.T) {
	set := smallSet(t)
	n := NewNet(set.Dim, 12, set.Classes, 5)
	tr := NewCGTrainer(n)
	losses := make([]float64, 15)
	for i := range losses {
		losses[i] = tr.Step(set)
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1]+1e-12 {
			t.Fatalf("loss increased at iter %d: %v", i, losses)
		}
	}
	final := losses[len(losses)-1]
	initial := math.Log(float64(set.Classes)) // ~random-guess loss
	if final > initial*0.8 {
		t.Fatalf("loss barely moved: %f (start ~%f)", final, initial)
	}
}

func TestCGTrainingReachesGoodAccuracy(t *testing.T) {
	set := smallSet(t)
	n := NewNet(set.Dim, 12, set.Classes, 5)
	tr := NewCGTrainer(n)
	tr.Train(set, 40, 0.05)
	if acc := tr.Accuracy(set); acc < 0.9 {
		t.Fatalf("accuracy = %.2f after training", acc)
	}
}

func TestGradientAdditivity(t *testing.T) {
	// The parallel decomposition: shard gradients sum to the full gradient.
	set := smallSet(t)
	n := NewNet(set.Dim, 10, set.Classes, 11)
	full := NewGradient(n)
	n.AccumulateGradient(set, 0, set.Len(), full)

	parts := NewGradient(n)
	shards := set.SplitEven(3)
	lo := 0
	for _, sh := range shards {
		g := NewGradient(n)
		n.AccumulateGradient(set, lo, lo+sh.Len(), g)
		parts.Add(g)
		lo += sh.Len()
	}
	fullFlat, partFlat := full.Flat(), parts.Flat()
	for i := range fullFlat {
		if math.Abs(fullFlat[i]-partFlat[i]) > 1e-12*(1+math.Abs(fullFlat[i])) {
			t.Fatalf("coord %d: %g vs %g", i, fullFlat[i], partFlat[i])
		}
	}
	if full.Count != parts.Count {
		t.Fatalf("counts: %d vs %d", full.Count, parts.Count)
	}
}

func TestExemplarSetShapes(t *testing.T) {
	set := GenerateExemplars(100, 16, 5, 1)
	if set.Len() != 100 || set.Bytes() != 100*ExemplarBytes(16) {
		t.Fatalf("len=%d bytes=%d", set.Len(), set.Bytes())
	}
	x, label := set.Exemplar(7)
	if len(x) != 16 || label != 7%5 {
		t.Fatalf("exemplar 7: dim=%d label=%d", len(x), label)
	}
	if set.ID(7) != 7 {
		t.Fatalf("id = %d", set.ID(7))
	}
}

func TestSizedSetApproximatesBytes(t *testing.T) {
	set := SizedSet(600_000, 64, 16, 1)
	got := set.Bytes()
	if got < 590_000 || got > 600_000 {
		t.Fatalf("sized set = %d bytes", got)
	}
}

func TestSplitEvenCoversAll(t *testing.T) {
	set := GenerateExemplars(103, 4, 3, 1)
	shards := set.SplitEven(4)
	total := 0
	for _, sh := range shards {
		total += sh.Len()
	}
	if total != 103 {
		t.Fatalf("split covers %d of 103", total)
	}
}

func TestTakeTailAndAbsorb(t *testing.T) {
	set := GenerateExemplars(50, 4, 2, 1).Own()
	frag := set.TakeTail(20)
	if set.Len() != 30 || frag.Len() != 20 {
		t.Fatalf("lens: %d, %d", set.Len(), frag.Len())
	}
	other := GenerateExemplars(10, 4, 2, 2).Own()
	if err := other.Absorb(frag); err != nil {
		t.Fatal(err)
	}
	if other.Len() != 30 {
		t.Fatalf("absorbed len = %d", other.Len())
	}
	bad := GenerateExemplars(5, 8, 2, 3)
	if err := other.Absorb(bad); err == nil {
		t.Fatal("dim mismatch absorbed")
	}
}

func TestPropDataMovementConservesExemplars(t *testing.T) {
	f := func(takes []uint8) bool {
		a := GenerateExemplars(60, 4, 3, 9).Own()
		b := GenerateExemplars(0, 4, 3, 10).Own()
		b.Dim = 4
		for _, tk := range takes {
			n := int(tk) % 20
			if tk%2 == 0 {
				b.Absorb(a.TakeTail(n))
			} else {
				a.Absorb(b.TakeTail(n))
			}
		}
		seen := make(map[int]bool)
		for _, s := range []*ExemplarSet{a, b} {
			for i := 0; i < s.Len(); i++ {
				id := s.ID(i)
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return len(seen) == 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelScaling(t *testing.T) {
	c := CostModel{InputDim: 64, Hidden: 32, Classes: 16}
	per := c.GradientFlopsPerExemplar()
	if per != 6*(64*32+32*16) {
		t.Fatalf("per-exemplar flops = %f", per)
	}
	if c.GradientFlops(100) != 100*per {
		t.Fatal("linear scaling broken")
	}
	adm := CostModel{InputDim: 64, Hidden: 32, Classes: 16, OverheadFactor: 1.23}
	if r := adm.GradientFlopsPerExemplar() / per; math.Abs(r-1.23) > 1e-9 {
		t.Fatalf("overhead factor ratio = %f", r)
	}
	if c.NetBytes() != (64*32+32+32*16+16)*4 {
		t.Fatalf("net bytes = %d", c.NetBytes())
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.InputDim != 64 || p.Iterations == 0 || p.Overhead != 1.0 {
		t.Fatalf("defaults = %+v", p)
	}
	if p.NumExemplars() != 600_000/ExemplarBytes(64) {
		t.Fatalf("exemplars = %d", p.NumExemplars())
	}
}

func TestEvenCounts(t *testing.T) {
	c := evenCounts(10, 3)
	if c[0] != 4 || c[1] != 3 || c[2] != 3 {
		t.Fatalf("counts = %v", c)
	}
}

// A gradient reply whose loss slice is empty is a malformed payload: every
// master's receive path (RunMaster, both RunADMMaster sites, ft.Job) must get
// an error from the shared decoder, never an index-out-of-range panic.
func TestUnpackGradientEmptyLoss(t *testing.T) {
	for _, like := range []*Gradient{nil, NewGradient(NewNet(2, 2, 2, 1))} {
		for _, loss := range [][]float64{nil, {}} {
			buf := core.NewBuffer().PkFloat64s(loss).PkInt(1).PkVirtual(8)
			_, g, err := unpackGradient(buf.Reader(), like)
			if err == nil || g != nil {
				t.Fatalf("Real=%v loss=%#v: gradient %v, error %v; want an error", like != nil, loss, g, err)
			}
		}
	}
	// The well-formed cost-model reply still decodes.
	buf := core.NewBuffer().PkFloat64s([]float64{2.5}).PkInt(7).PkVirtual(8)
	pl, _, err := unpackGradient(buf.Reader(), nil)
	if err != nil || pl != 2.5 {
		t.Fatalf("well-formed reply: loss %v err %v", pl, err)
	}
}

func TestRNGClassifierSanity(t *testing.T) {
	// Different seeds give different data.
	a := GenerateExemplars(10, 4, 2, 1)
	b := GenerateExemplars(10, 4, 2, 2)
	xa, _ := a.Exemplar(0)
	xb, _ := b.Exemplar(0)
	same := true
	for i := range xa {
		if xa[i] != xb[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds ignored")
	}
	_ = sim.FromSeconds // keep the import honest if unused elsewhere
}

// SizedSet builds a set whose total storage is approximately totalBytes,
// matching how the paper reports training sets by megabyte.
func SizedSet(totalBytes, dim, classes int, seed uint64) *ExemplarSet {
	n := totalBytes / ExemplarBytes(dim)
	if n < classes {
		n = classes
	}
	return GenerateExemplars(n, dim, classes, seed)
}

// SplitEven partitions the set into n contiguous shards of near-equal size
// ("data is equally distributed among the slaves").
func (s *ExemplarSet) SplitEven(n int) []*ExemplarSet {
	shards := make([]*ExemplarSet, n)
	per := s.Len() / n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + per
		if i == n-1 {
			hi = s.Len()
		}
		shards[i] = s.Slice(lo, hi)
		lo = hi
	}
	return shards
}

// Train runs up to maxIter iterations, stopping early when the loss drops
// below threshold. It returns the final loss.
func (t *CGTrainer) Train(set *ExemplarSet, maxIter int, threshold float64) float64 {
	loss := math.Inf(1)
	for i := 0; i < maxIter; i++ {
		loss = t.Step(set)
		if loss < threshold {
			break
		}
	}
	return loss
}
