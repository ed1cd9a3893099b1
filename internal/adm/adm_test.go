package adm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/pvm"
	"pvmigrate/internal/sim"
)

// optFSM builds the ADMopt state machine of Figure 4.
func optFSM() *FSM {
	f := NewFSM("compute")
	f.On("compute", "migration-event", "redistribute").
		On("compute", "iteration-done", "reduce").
		On("reduce", "net-updated", "compute").
		On("reduce", "migration-event", "redistribute").
		On("redistribute", "redistributed", "compute").
		On("redistribute", "no-data", "inactive").
		On("inactive", "data-received", "compute").
		On("compute", "converged", "done")
	return f
}

func TestFSMDeclaredTransitions(t *testing.T) {
	f := optFSM()
	steps := []struct {
		event string
		want  State
	}{
		{"iteration-done", "reduce"},
		{"net-updated", "compute"},
		{"migration-event", "redistribute"},
		{"redistributed", "compute"},
		{"converged", "done"},
	}
	for _, s := range steps {
		got, err := f.Fire(s.event)
		if err != nil || got != s.want {
			t.Fatalf("Fire(%q) = %q, %v; want %q", s.event, got, err, s.want)
		}
	}
	if len(f.Log()) != len(steps) {
		t.Fatalf("log = %d entries", len(f.Log()))
	}
}

func TestFSMRejectsUndeclared(t *testing.T) {
	f := optFSM()
	if _, err := f.Fire("data-received"); err == nil {
		t.Fatal("undeclared transition accepted")
	}
	if f.State() != "compute" {
		t.Fatalf("state changed on rejected event: %q", f.State())
	}
}

func TestFSMTableRendersFigure4(t *testing.T) {
	table := optFSM().Table()
	for _, s := range []string{"compute", "redistribute", "inactive", "migration-event"} {
		if !strings.Contains(table, s) {
			t.Fatalf("table missing %q:\n%s", s, table)
		}
	}
	if got := len(optFSM().States()); got != 5 {
		t.Fatalf("states = %d, want 5", got)
	}
}

func TestPartitionProportional(t *testing.T) {
	shares, err := Partition(100, []float64{1, 1, 2}, []bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if shares[0] != 25 || shares[1] != 25 || shares[2] != 50 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestPartitionWithdrawnWorkerGetsZero(t *testing.T) {
	shares, err := Partition(90, []float64{1, 1, 1}, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if shares[1] != 0 || shares[0]+shares[2] != 90 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(10, []float64{1}, []bool{true, true}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Partition(10, []float64{1}, []bool{false}); err == nil {
		t.Fatal("no active workers accepted")
	}
	if _, err := Partition(10, []float64{-1}, []bool{true}); err == nil {
		t.Fatal("negative power accepted")
	}
	if shares, err := Partition(0, []float64{1}, []bool{false}); err != nil || shares[0] != 0 {
		t.Fatal("zero items should always partition")
	}
}

// Property: shares always sum to total and respect inactivity.
func TestPropPartitionExact(t *testing.T) {
	f := func(total uint16, rawPowers []uint8, activeBits uint8) bool {
		n := len(rawPowers)
		if n == 0 || n > 8 {
			return true
		}
		powers := make([]float64, n)
		active := make([]bool, n)
		anyActive := false
		for i, p := range rawPowers {
			powers[i] = float64(p%50) + 1
			active[i] = activeBits&(1<<i) != 0
			anyActive = anyActive || active[i]
		}
		shares, err := Partition(int(total), powers, active)
		if !anyActive {
			return int(total) == 0 || err != nil
		}
		if err != nil {
			return false
		}
		sum := 0
		for i, s := range shares {
			if s < 0 || (!active[i] && s != 0) {
				return false
			}
			sum += s
		}
		return sum == int(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMovesFragmentsWithdrawal(t *testing.T) {
	current := []int{30, 30, 30}
	target := []int{45, 45, 0}
	moves, err := PlanMoves(current, target)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 2's 30 items must fragment across workers 0 and 1.
	got := map[int]int{}
	for _, m := range moves {
		if m.From != 2 {
			t.Fatalf("unexpected source: %+v", moves)
		}
		got[m.To] += m.Count
	}
	if got[0] != 15 || got[1] != 15 {
		t.Fatalf("moves = %+v", moves)
	}
	// Input slices untouched.
	if current[2] != 30 {
		t.Fatal("PlanMoves mutated its input")
	}
}

// Property: applying the planned moves always reaches the target exactly.
func TestPropPlanMovesReachTarget(t *testing.T) {
	f := func(cur []uint8, powers []uint8) bool {
		n := len(cur)
		if n == 0 || n > 8 || len(powers) < n {
			return true
		}
		current := make([]int, n)
		total := 0
		for i, c := range cur {
			current[i] = int(c % 100)
			total += current[i]
		}
		pw := make([]float64, n)
		act := make([]bool, n)
		for i := 0; i < n; i++ {
			pw[i] = float64(powers[i]%20) + 1
			act[i] = true
		}
		target, err := Partition(total, pw, act)
		if err != nil {
			return false
		}
		moves, err := PlanMoves(current, target)
		if err != nil {
			return false
		}
		state := append([]int(nil), current...)
		for _, m := range moves {
			if m.Count <= 0 || m.From == m.To {
				return false
			}
			state[m.From] -= m.Count
			state[m.To] += m.Count
			if state[m.From] < 0 {
				return false
			}
		}
		for i := range state {
			if state[i] != target[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardNoDoubleProcessing(t *testing.T) {
	s := NewShard(0, 10)
	if end, n := s.NextChunk(0, 4); end != 4 || n != 4 {
		t.Fatalf("first chunk = (%d, %d), want (4, 4)", end, n)
	}
	s.MarkRange(0, 4)
	if end, n := s.NextChunk(0, 4); end != 8 || n != 4 {
		t.Fatalf("chunk over processed positions = (%d, %d), want (8, 4)", end, n)
	}
	if err := s.Absorb(NewShard(3, 4), 10); err == nil {
		t.Fatal("a second copy of exemplar 3 absorbed")
	}
	s.Reset()
	if s.Processed(0) || s.Processed(3) {
		t.Fatal("reset incomplete")
	}
}

func TestShardFragmentAndAbsorb(t *testing.T) {
	a := NewShard(0, 10)
	b := NewShard(10, 20)
	frag := a.TakeFragment(4)
	if a.Len() != 6 || frag.Len() != 4 {
		t.Fatalf("lens = %d, %d", a.Len(), frag.Len())
	}
	if err := b.Absorb(frag, 20); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 14 {
		t.Fatalf("b.Len = %d", b.Len())
	}
	if err := checkDisjoint(20, a, b); err != nil {
		t.Fatal(err)
	}
}

func TestShardFlagsTravelWithData(t *testing.T) {
	a := NewShard(0, 10)
	// A processes exemplars 6..9, then ships 5..9 away mid-iteration.
	a.MarkRange(6, 10)
	frag := a.TakeFragment(5) // ids 5..9
	b := NewShard(10, 12)
	if err := b.Absorb(frag, 20); err != nil {
		t.Fatal(err)
	}
	// The receiver must see 6..9 as already processed, 5 as not: its
	// iteration's one chunk is its own two exemplars and 5.
	for i := 0; i < b.Len(); i++ {
		if want := b.ID(i) >= 6 && b.ID(i) <= 9; b.Processed(i) != want {
			t.Fatalf("exemplar %d processed = %v, want %v", b.ID(i), b.Processed(i), want)
		}
	}
	end, n := b.NextChunk(0, 100)
	if end != b.Len() || n != 3 || b.ID(2) != 5 {
		t.Fatalf("receiver's chunk = (%d, %d), want exemplars 10, 11 and 5 over all %d positions", end, n, b.Len())
	}
}

// checkDisjoint verifies that the given shards partition exactly the ids
// [0, total): no exemplar lost, none duplicated — the ADM correctness
// invariant the property tests exercise.
func checkDisjoint(total int, shards ...*Shard) error {
	seen := make([]bool, total)
	n := 0
	for si, s := range shards {
		for i := 0; i < s.Len(); i++ {
			id := s.ID(i)
			if id < 0 || id >= total {
				return fmt.Errorf("shard %d has out-of-range exemplar %d", si, id)
			}
			if seen[id] {
				return fmt.Errorf("exemplar %d duplicated (shard %d)", id, si)
			}
			seen[id] = true
			n++
		}
	}
	if n != total {
		return fmt.Errorf("%d of %d exemplars present", n, total)
	}
	return nil
}

func TestCheckDisjointCatchesLossAndDup(t *testing.T) {
	a := NewShard(0, 5)
	b := NewShard(5, 10)
	if err := checkDisjoint(10, a, b); err != nil {
		t.Fatal(err)
	}
	if err := checkDisjoint(11, a, b); err == nil {
		t.Fatal("missing exemplar undetected")
	}
	dup := NewShard(4, 6)
	if err := checkDisjoint(10, a, b, dup); err == nil {
		t.Fatal("duplicate exemplar undetected")
	}
}

// Property: arbitrary sequences of fragment/absorb preserve the exemplar
// set exactly.
func TestPropRedistributionConservesExemplars(t *testing.T) {
	f := func(ops []uint16, nWorkers uint8, totalSeed uint8) bool {
		n := int(nWorkers)%5 + 2
		total := (int(totalSeed)%20 + 1) * n
		shards := make([]*Shard, n)
		per := total / n
		for i := 0; i < n; i++ {
			lo := i * per
			hi := lo + per
			if i == n-1 {
				hi = total
			}
			shards[i] = NewShard(lo, hi)
		}
		for _, op := range ops {
			from := int(op) % n
			to := int(op>>4) % n
			if from == to {
				continue
			}
			count := int(op>>8)%7 + 1
			frag := shards[from].TakeFragment(count)
			if shards[to].Absorb(frag, total) != nil {
				return false
			}
		}
		return checkDisjoint(total, shards...) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEventQueueSignalDelivery(t *testing.T) {
	k := sim.NewKernel()
	cl := cluster.New(k, netsim.Params{}, cluster.DefaultHostSpec("h1"))
	m := pvm.NewMachine(cl, pvm.Config{})
	var seen []Event
	var sawAt sim.Time
	task, _ := m.Spawn(0, "adm", func(t2 *pvm.Task) {
		q := Attach(t2)
		// Inner compute loop with flag checks.
		for chunk := 0; chunk < 20; chunk++ {
			t2.Compute(t2.Host().Spec().Speed / 2) // 0.5 s per chunk
			if q.Pending() {
				for {
					ev, ok := q.Take()
					if !ok {
						break
					}
					seen = append(seen, ev)
					sawAt = t2.Proc().Now()
				}
			}
		}
	})
	// Two "simultaneous" events mid-computation: both must be queued.
	k.Schedule(3*time.Second, func() {
		Signal(task, Event{Kind: "withdraw", Reason: core.ReasonOwnerReclaim})
	})
	k.Schedule(3*time.Second+10*time.Millisecond, func() {
		Signal(task, Event{Kind: "rebalance", Reason: core.ReasonHighLoad})
	})
	k.Run()
	if len(seen) != 2 {
		t.Fatalf("events seen = %+v", seen)
	}
	if seen[0].Kind != "withdraw" || seen[1].Kind != "rebalance" {
		t.Fatalf("order = %+v", seen)
	}
	// Rapid response: events surface at the next flag check, not at the end.
	if sawAt > 5*time.Second {
		t.Fatalf("events surfaced late: %v", sawAt)
	}
}
