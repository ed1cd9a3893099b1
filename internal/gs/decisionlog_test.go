package gs

import (
	"errors"
	"testing"
	"time"

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
		f.log.reset()
		for i := 0; i < total; i++ {
			f.log.add(entry(i))
		}
	}
	if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
		t.Fatalf("refilling a reset log allocated %.0f times, want 0", allocs)
	}
	check(total)
	f.log.reset()
	check(0)
	f.log.add(entry(0))
	if one := f.Decisions(); &one[0] != &f.Decisions()[0] {
		t.Fatal("a one-page Decisions() is the page itself")
	}
	check(1)
}

// reset empties the log keeping every page's capacity.
func (l *decisionLog) reset() {
	l.first = l.first[:0]
	for i := range l.more[:l.used] {
		l.more[i] = l.more[i][:0]
	}
	l.used, l.folded = 0, 0
}

// TestDecisionFingerprintFoldsEveryField: changing any one field of a
// decision changes the fold, and so does moving a string boundary — the
// same bytes split differently between Reason and the Err text — or
// replacing a nil Err with one whose text is empty.
func TestDecisionFingerprintFoldsEveryField(t *testing.T) {
	base := Decision{At: 5 * time.Second, Host: 3, Dest: 7, Reason: core.ReasonHighLoad, Moved: 1}
	fp := func(d Decision) uint64 { return DecisionFingerprint([]Decision{d}) }
	seen := map[uint64]string{fp(base): "base"}
	variant := func(name string, mut func(*Decision)) {
		d := base
		mut(&d)
		v := fp(d)
		if other, ok := seen[v]; ok {
			t.Errorf("%s folds to %#x, the same as %s", name, v, other)
		}
		seen[v] = name
	}
	variant("At", func(d *Decision) { d.At++ })
	variant("Host", func(d *Decision) { d.Host++ })
	variant("Dest", func(d *Decision) { d.Dest = -1 })
	variant("Moved", func(d *Decision) { d.Moved = 0 })
	variant("Reason", func(d *Decision) { d.Reason = core.ReasonOwnerReclaim })
	variant("Reason's last byte", func(d *Decision) { d.Reason = "high-loae" })
	variant("empty Err", func(d *Decision) { d.Err = errors.New("") })
	variant("Err", func(d *Decision) { d.Err = errors.New("gs.no-destination") })
	variant(`"ab"+""`, func(d *Decision) { d.Reason, d.Err = "ab", errors.New("") })
	variant(`"a"+"b"`, func(d *Decision) { d.Reason, d.Err = "a", errors.New("b") })
	variant("Host and Dest swapped", func(d *Decision) { d.Host, d.Dest = d.Dest, d.Host })

	// Order matters too: two decisions folded the other way round.
	other := base
	other.Host = 4
	if DecisionFingerprint([]Decision{base, other}) == DecisionFingerprint([]Decision{other, base}) {
		t.Error("two decisions fold the same in either order")
	}
}

// BenchmarkDecisionFingerprint folds a 1,024-entry log shaped like the
// fleet storm's (nine moves to each evacuation, a failed move now and then)
// and reports the cost per decision.
func BenchmarkDecisionFingerprint(b *testing.B) {
	failed := errors.New("gs.no-destination: no destination for 3 stranded units")
	decs := make([]Decision, decisionPage)
	for i := range decs {
		decs[i] = Decision{At: sim.Time(i) * time.Second, Host: i % 1000, Dest: (i * 7) % 1000, Reason: core.ReasonHighLoad, Moved: 1}
		if i%10 == 0 {
			decs[i].Dest, decs[i].Reason, decs[i].Moved = -1, core.ReasonOwnerReclaim, 120
		}
		if i%97 == 0 {
			decs[i].Moved, decs[i].Err = 0, failed
		}
	}
	b.ReportAllocs()
	for range b.N {
		fingerprintSink = DecisionFingerprint(decs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(decs)), "ns/decision")
}

var fingerprintSink uint64
