package gs

import "pvmigrate/internal/sim"

// ShardView is what a placement policy sees when picking a destination
// inside one shard: the member load index (slot-indexed) and per-slot
// receiver eligibility (alive, owner-free). Policies read it; only the
// shard writes it.
type ShardView struct {
	Index *LoadIndex
	// Elig holds the member slots that may receive work.
	Elig HostSet
}

// Placement picks the destination for one work unit leaving an overloaded
// member. Implementations must be deterministic given (view, from, rng)
// and allocation-free: Pick runs on the scheduler's steady-state tick
// path. Returning -1 declines — the shard then tries a cross-shard move.
//
// The improvement guard is the policy's to enforce: a destination is only
// acceptable when its load is at least two units below the donor's
// (moving a unit between hosts one apart just swaps the imbalance — the
// same guard the paper's centralized GS applies).
type Placement interface {
	Name() string
	Pick(v *ShardView, from, fromLoad int, rng *sim.RNG) int
}

func improves(fromLoad, destLoad int) bool { return destLoad < fromLoad-1 }

// FirstFit takes the lowest-numbered eligible member that improves the
// imbalance — the cheapest policy, and the paper's original placement.
type FirstFit struct{}

// Name implements Placement.
func (FirstFit) Name() string { return "first-fit" }

// Pick implements Placement.
func (FirstFit) Pick(v *ShardView, from, fromLoad int, rng *sim.RNG) int {
	for slot := 0; slot < v.Index.Hosts(); slot++ {
		if slot == from || !v.Elig.Has(slot) {
			continue
		}
		if improves(fromLoad, v.Index.Load(slot)) {
			return slot
		}
	}
	return -1
}

// LeastLoaded takes the least-loaded eligible member (lowest slot on
// ties) — the greedy policy the targets' evacuation path already uses.
type LeastLoaded struct{}

// Name implements Placement.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Placement.
func (LeastLoaded) Pick(v *ShardView, from, fromLoad int, rng *sim.RNG) int {
	slot, load := v.Index.BestEligible(v.Elig)
	if slot < 0 || slot == from || !improves(fromLoad, load) {
		return -1
	}
	return slot
}

// DestSwap is the destination-swap strategy (Avin/Dunay/Schmid): probe
// two seeded-random eligible members, keep the lighter, and if that probe
// still fails the improvement test, swap it for the global least-loaded
// member. Two random probes give near-least-loaded balance without a
// level walk on every decision; the swap bounds the worst case.
type DestSwap struct{}

// destSwapProbes is the classic power-of-two choice.
const destSwapProbes = 2

// Name implements Placement.
func (DestSwap) Name() string { return "dest-swap" }

// Pick implements Placement.
func (DestSwap) Pick(v *ShardView, from, fromLoad int, rng *sim.RNG) int {
	n := v.Index.Hosts()
	best := -1
	for i := 0; i < destSwapProbes; i++ {
		// Up to 4 draws per probe to land on an eligible slot; a miss
		// simply weakens the probe, it never blocks the decision.
		for try := 0; try < 4; try++ {
			slot := rng.Intn(n)
			if slot == from || !v.Elig.Has(slot) {
				continue
			}
			if best < 0 || v.Index.Load(slot) < v.Index.Load(best) ||
				(v.Index.Load(slot) == v.Index.Load(best) && slot < best) {
				best = slot
			}
			break
		}
	}
	if best >= 0 && improves(fromLoad, v.Index.Load(best)) {
		return best
	}
	// Swap step: the probes failed; fall back to the exact least-loaded.
	slot, load := v.Index.BestEligible(v.Elig)
	if slot < 0 || slot == from || !improves(fromLoad, load) {
		return -1
	}
	return slot
}

// PlacementByName resolves a policy name from flags and configs; nil for
// unknown names.
func PlacementByName(name string) Placement {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}
	case "first-fit":
		return FirstFit{}
	case "dest-swap":
		return DestSwap{}
	}
	return nil
}
