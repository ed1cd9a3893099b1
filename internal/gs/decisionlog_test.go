package gs

import (
	"errors"
	"testing"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// TestDecisionLogPages walks the fleet's decision log across its page
// boundaries: entries stay in the order logged, Decisions() and
// EachDecision agree, and the running Fingerprint equals the fold of the
// flat log at every length — then a reset log refills without allocating.
func TestDecisionLogPages(t *testing.T) {
	cl := cluster.New(sim.NewKernel(), netsim.Params{}, cluster.DefaultHostSpec("h"))
	f := NewFleet(cl, NewCountTarget(cl), FleetPolicy{})
	failed := errors.New("gs.no-destination: no destination for 3 stranded units")
	entry := func(i int) Decision {
		d := Decision{At: sim.Time(i) * 7, Host: i, Dest: i%5 - 1, Reason: core.ReasonHighLoad, Moved: 1}
		if i%3 == 0 {
			d.Reason, d.Moved, d.Err = core.ReasonOwnerReclaim, 0, failed
		}
		return d
	}
	check := func(n int) {
		t.Helper()
		decs := f.Decisions()
		if len(decs) != n {
			t.Fatalf("%d logged: Decisions() has %d", n, len(decs))
		}
		for i, d := range decs {
			if d != entry(i) {
				t.Fatalf("%d logged: entry %d = %+v, want %+v", n, i, d, entry(i))
			}
		}
		i := 0
		f.EachDecision(func(d Decision) {
			if i >= n || d != decs[i] {
				t.Fatalf("%d logged: visit %d = %+v, not Decisions()[%d]", n, i, d, i)
			}
			i++
		})
		if i != n {
			t.Fatalf("%d logged: EachDecision visited %d", n, i)
		}
		if got, want := f.Fingerprint(), DecisionFingerprint(decs); got != want {
			t.Fatalf("%d logged: running fingerprint %#x, fold of the log %#x", n, got, want)
		}
	}

	const total = 3*decisionPage + 7
	logged := 0
	for _, n := range []int{0, 1, decisionPage - 1, decisionPage, decisionPage + 1, total} {
		for ; logged < n; logged++ {
			f.log.add(entry(logged))
		}
		check(n)
	}
	if one := f.Decisions(); &one[0] == &f.Decisions()[0] {
		t.Fatal("a multi-page Decisions() must be a copy, not a page")
	}

	refill := func() {
		f.ResetDecisions()
		for i := 0; i < total; i++ {
			f.log.add(entry(i))
		}
	}
	if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
		t.Fatalf("refilling a reset log allocated %.0f times, want 0", allocs)
	}
	check(total)
	f.ResetDecisions()
	check(0)
	f.log.add(entry(0))
	if one := f.Decisions(); &one[0] != &f.Decisions()[0] {
		t.Fatal("a one-page Decisions() is the page itself")
	}
	check(1)
}
