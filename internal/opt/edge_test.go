package opt

import (
	"math"
	"testing"
)

func TestClassifyAfterTraining(t *testing.T) {
	set := GenerateExemplars(200, 6, 3, 2)
	n := NewNet(6, 10, 3, 3)
	tr := NewCGTrainer(n)
	tr.Train(set, 30, 0.05)
	x, label := set.Exemplar(0)
	if got := n.Classify(x); got != label {
		// Not every exemplar classifies correctly; check the aggregate.
		if tr.Accuracy(set) < 0.85 {
			t.Fatalf("accuracy = %.2f", tr.Accuracy(set))
		}
	}
}

func TestLineSearchAcceptsDescentStep(t *testing.T) {
	set := GenerateExemplars(100, 4, 2, 5)
	n := NewNet(4, 6, 2, 6)
	tr := NewCGTrainer(n)
	g := NewGradient(n)
	n.AccumulateGradient(set, 0, set.Len(), g)
	grad := g.Flat()
	dir := tr.Direction(grad)
	loss0 := n.Loss(set)
	step, loss := tr.LineSearch(set, grad, dir)
	if step <= 0 {
		t.Fatalf("no step accepted")
	}
	if loss > loss0 {
		t.Fatalf("line search increased loss: %f → %f", loss0, loss)
	}
}

func TestSizedSetMinimumClasses(t *testing.T) {
	// Tiny byte budgets still produce at least one exemplar per class.
	set := SizedSet(10, 64, 16, 1)
	if set.Len() < 16 {
		t.Fatalf("len = %d", set.Len())
	}
}

func TestTakeTailMoreThanLen(t *testing.T) {
	set := GenerateExemplars(5, 4, 2, 1).Own()
	frag := set.TakeTail(99)
	if frag.Len() != 5 || set.Len() != 0 {
		t.Fatalf("lens: %d, %d", frag.Len(), set.Len())
	}
}

func TestReferenceTrajectoryMatchesSerialTrainerShape(t *testing.T) {
	// Sanity: the reference decreases loss overall for a learnable set.
	p := Params{TotalBytes: 100_000, Iterations: 8, Real: true, Seed: 12}
	losses := ReferenceTrajectory(p, 2)
	if len(losses) != 8 {
		t.Fatalf("losses = %v", losses)
	}
	if losses[7] >= losses[0] {
		t.Fatalf("no learning: %v", losses)
	}
	// Deterministic.
	again := ReferenceTrajectory(p, 2)
	for i := range losses {
		if losses[i] != again[i] {
			t.Fatal("reference not deterministic")
		}
	}
}

func TestUpdateFlopsScalesWithSlaves(t *testing.T) {
	c := CostModel{InputDim: 8, Hidden: 4, Classes: 2}
	if c.UpdateFlops(4) <= c.UpdateFlops(1) {
		t.Fatal("update cost should grow with slave count")
	}
}

func TestADMParamsDefaults(t *testing.T) {
	ap := ADMParams{Params: Params{}}.withDefaults()
	if math.Abs(ap.Overhead-1.23) > 1e-9 {
		t.Fatalf("ADM overhead default = %f", ap.Overhead)
	}
	if ap.ChunkExemplars == 0 || ap.Stats == nil {
		t.Fatalf("defaults incomplete: %+v", ap)
	}
	// Explicit overhead is respected.
	ap2 := ADMParams{Params: Params{Overhead: 2.0}}.withDefaults()
	if ap2.Overhead != 2.0 {
		t.Fatalf("explicit overhead overridden: %f", ap2.Overhead)
	}
}

func TestADMFSMHasFigure4States(t *testing.T) {
	f := ADMFSM()
	states := f.States()
	want := map[string]bool{"compute": false, "reduce": false, "redistribute": false,
		"inactive": false, "finished": false}
	for _, s := range states {
		if _, ok := want[string(s)]; ok {
			want[string(s)] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("FSM missing state %q: %v", name, states)
		}
	}
}
