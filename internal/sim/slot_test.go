package sim

import (
	"reflect"
	"slices"
	"testing"
)

// TestSlotOrderMatchesDispatch holds Slot.Compare to the queue's own order.
// Each seed schedules n callbacks up front at random instants drawn from a
// few values (so many collide), with and without a tie-break seed, and
// records the dispatch order. A twin kernel reserves the same instants in
// the same order: sorted by Compare, the places must come out in that
// dispatch order. Then a twin runs them as two streams — only each
// stream's next place queued, each callback queueing its successor — while
// every callback also schedules a follow-up at a colliding instant, and the
// dispatch log and the event count must equal an up-front run that does
// the same.
func TestSlotOrderMatchesDispatch(t *testing.T) {
	const n = 200
	for seed := uint64(0); seed < 64; seed++ {
		for _, tiebreak := range []bool{false, true} {
			setup := func() *Kernel {
				k := NewKernel()
				if tiebreak {
					k.SetTieBreakSeed(seed)
				}
				return k
			}
			rng := NewRNG(seed)
			ats := make([]Time, n)
			for i := range ats {
				ats[i] = Time(1 + rng.Intn(6))
			}

			// Up front: every event queued before the run.
			k := setup()
			var want []int
			for i, at := range ats {
				k.ScheduleAt(at, func() { want = append(want, i) })
			}
			k.Run()
			// reserve takes every instant's place on k, in schedule order,
			// and sorts the places by Compare.
			type place struct {
				s Slot
				i int
			}
			reserve := func(k *Kernel) []place {
				places := make([]place, n)
				for i, at := range ats {
					places[i] = place{k.Reserve(at), i}
				}
				slices.SortFunc(places, func(a, b place) int { return a.s.Compare(b.s) })
				return places
			}
			places := reserve(setup())
			got := make([]int, n)
			for j, p := range places {
				got[j] = p.i
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d tiebreak %v: sorted places %v, dispatch order %v", seed, tiebreak, got, want)
			}
			for j := range places {
				if c := places[j].s.Compare(places[j].s); c != 0 {
					t.Fatalf("a place compares %d with itself", c)
				}
				if j > 0 && places[j-1].s.Compare(places[j].s) != -1 || j > 0 && places[j].s.Compare(places[j-1].s) != 1 {
					t.Fatalf("seed %d tiebreak %v: places %d and %d are not strictly ordered", seed, tiebreak, j-1, j)
				}
			}

			// With follow-ups: each callback logs itself and schedules a
			// follow-up 0–2 ns later, which logs n+i.
			follow := func(k *Kernel, log *[]int, i int) {
				*log = append(*log, i)
				k.Schedule(Time(i%3), func() { *log = append(*log, n+i) })
			}
			upfront := setup()
			var upLog []int
			for i, at := range ats {
				upfront.ScheduleAt(at, func() { follow(upfront, &upLog, i) })
			}
			upfront.Run()

			// The stream is split in two by index parity, each half sorted
			// on its own and keeping only its own next place queued, as
			// RunFleet streams its arrivals and departures.
			stream := setup()
			var streamLog []int
			var halves [2][]place
			for _, p := range reserve(stream) {
				halves[p.i%2] = append(halves[p.i%2], p)
			}
			for _, half := range halves {
				next := 0
				var fire func()
				fire = func() {
					p := half[next]
					if next++; next < len(half) {
						stream.ScheduleSlot(half[next].s, fire)
					}
					follow(stream, &streamLog, p.i)
				}
				stream.ScheduleSlot(half[0].s, fire)
			}
			stream.Run()
			if !reflect.DeepEqual(streamLog, upLog) {
				t.Fatalf("seed %d tiebreak %v: streamed dispatch\n%v\nup-front dispatch\n%v", seed, tiebreak, streamLog, upLog)
			}
			if a, b := stream.EventsScheduled(), upfront.EventsScheduled(); a != b {
				t.Fatalf("seed %d tiebreak %v: streamed run scheduled %d events, up-front %d", seed, tiebreak, a, b)
			}
		}
	}
}
