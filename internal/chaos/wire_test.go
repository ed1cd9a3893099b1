package chaos

import (
	"fmt"
	"testing"

	"pvmigrate/internal/sweep"
)

// wireEquivalenceSeeds is how many seeds of every scenario, in both modes,
// TestWireEquivalence runs with and without the wire.
const wireEquivalenceSeeds = 25

// TestWireEquivalence: the netwire backend substitutes payload bytes only,
// never timing, so a seeded run over the real transport is the in-memory
// run — the same outcome fingerprint, GS decisions and kernel event count.
// Every scenario runs under a tie-break seed, so a wire-only event (one the
// in-memory run never schedules) shifts every same-instant order after it
// and shows here even when it changes no outcome.
func TestWireEquivalence(t *testing.T) {
	for _, sc := range Scenarios {
		for _, real := range []bool{false, true} {
			sc, real := sc, real
			t.Run(fmt.Sprintf("%s/real=%v", sc.Name, real), func(t *testing.T) {
				diffs := sweep.Seeds(wireEquivalenceSeeds, 0, func(seed uint64) string {
					mem := outcomeLine(Run(sc, Config{Seed: seed, Real: real}))
					wire := outcomeLine(Run(sc, Config{Seed: seed, Real: real, Wire: true}))
					if mem == wire {
						return ""
					}
					return fmt.Sprintf("seed %d:\n  memory %s  wire   %s", seed, mem, wire)
				})
				for _, d := range diffs {
					if d != "" {
						t.Error(d)
					}
				}
			})
		}
	}
}
