package adm

import "pvmigrate/internal/errs"

// Partition computes how many of total work items each active worker should
// hold, proportional to its power (e.g. CPU speed ÷ load). Inactive workers
// get zero — a withdrawing worker is simply marked inactive and the next
// partition fragments its data across the others, the paper's observation
// that ADM "does not attempt to preserve an ordering among the exemplars".
// Shares are exact: they sum to total, with remainders going to the most
// powerful workers.
func Partition(total int, powers []float64, active []bool) ([]int, error) {
	if len(powers) != len(active) {
		return nil, errs.Newf(CodeBadPartition, "%d powers vs %d active flags", len(powers), len(active))
	}
	var sum float64
	anyActive := false
	for i, p := range powers {
		if !active[i] {
			continue
		}
		if p < 0 {
			return nil, errs.Newf(CodeBadPartition, "negative power %f for worker %d", p, i)
		}
		sum += p
		anyActive = true
	}
	shares := make([]int, len(powers))
	if total == 0 {
		return shares, nil
	}
	if !anyActive || sum == 0 {
		return nil, errs.Newf(CodeBadPartition, "no active workers with power for %d items", total)
	}
	type frac struct {
		i int
		f float64
	}
	var fracs []frac
	assigned := 0
	for i, p := range powers {
		if !active[i] {
			continue
		}
		exact := float64(total) * p / sum
		shares[i] = int(exact)
		assigned += shares[i]
		fracs = append(fracs, frac{i: i, f: exact - float64(shares[i])})
	}
	// Distribute the remainder by largest fractional part (ties: lower
	// index), keeping the result deterministic.
	for assigned < total {
		best := -1
		for j := range fracs {
			if best == -1 || fracs[j].f > fracs[best].f {
				best = j
			}
		}
		shares[fracs[best].i]++
		fracs[best].f = -1
		assigned++
	}
	return shares, nil
}

// Move is one planned data shipment: Count items from worker From to To.
type Move struct {
	From, To, Count int
}

// PlanMoves computes a minimal-volume set of moves turning the current
// shares into the target shares. Surpluses may fragment across several
// receivers (paper §4.3: "data that is vacating a process to be fragmented
// and sent to several other processes").
func PlanMoves(current, target []int) ([]Move, error) {
	if len(current) != len(target) {
		return nil, errs.Newf(CodeBadPlan, "%d current vs %d target", len(current), len(target))
	}
	totC, totT := 0, 0
	for i := range current {
		totC += current[i]
		totT += target[i]
	}
	if totC != totT {
		return nil, errs.Newf(CodeBadPlan, "plan would change total items: %d → %d", totC, totT)
	}
	current = append([]int(nil), current...) // plan without mutating the input
	var moves []Move
	j := 0 // receiver scan position
	for i := range current {
		surplus := current[i] - target[i]
		for surplus > 0 {
			for j < len(current) && current[j] >= target[j] {
				j++
			}
			if j >= len(current) {
				return nil, errs.Newf(CodeBadPlan, "internal plan imbalance")
			}
			need := target[j] - current[j]
			n := surplus
			if n > need {
				n = need
			}
			moves = append(moves, Move{From: i, To: j, Count: n})
			current[i] -= n
			current[j] += n
			surplus -= n
		}
	}
	return moves, nil
}
