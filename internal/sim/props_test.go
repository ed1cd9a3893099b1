package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// Property: regardless of the order in which events are scheduled, they fire
// in non-decreasing time order, and same-time events fire in schedule order.
func TestPropEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		type firing struct {
			at  Time
			idx int
		}
		var fired []firing
		for i, d := range delays {
			i, at := i, Time(d)*time.Millisecond
			k.Schedule(at, func() { fired = append(fired, firing{k.Now(), i}) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
				return false
			}
		}
		// Every event fired at exactly its requested time.
		for _, f := range fired {
			if Time(delays[f.idx])*time.Millisecond != f.at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue conserves items — everything put is got exactly once, in
// FIFO order per producer, for arbitrary producer/consumer timing.
func TestPropQueueConservation(t *testing.T) {
	f := func(counts []uint8, seed uint64) bool {
		if len(counts) == 0 || len(counts) > 8 {
			counts = []uint8{3, 5, 2}
		}
		k := NewKernel()
		rng := NewRNG(seed)
		q := NewQueue[[2]int](k)
		total := 0
		for pi, c := range counts {
			pi, c := pi, int(c)%16
			total += c
			jitter := Time(rng.Intn(50)) * time.Millisecond
			k.Spawn("prod", func(p *Proc) {
				for j := 0; j < c; j++ {
					p.Sleep(jitter)
					q.TryPut([2]int{pi, j})
				}
			})
		}
		got := make(map[[2]int]int)
		perProducerLast := make(map[int]int)
		for i := range perProducerLast {
			perProducerLast[i] = -1
		}
		ok := true
		k.Spawn("cons", func(p *Proc) {
			for n := 0; n < total; n++ {
				v, err := q.Get(p)
				if err != nil {
					ok = false
					return
				}
				got[v]++
				last, seen := perProducerLast[v[0]]
				if !seen {
					last = -1
				}
				if v[1] != last+1 {
					ok = false // per-producer FIFO violated
				}
				perProducerLast[v[0]] = v[1]
			}
		})
		if blocked := k.Run(); blocked != 0 {
			return false
		}
		if !ok {
			return false
		}
		n := 0
		for _, c := range got {
			if c != 1 {
				return false
			}
			n += c
		}
		return n == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG streams are deterministic per seed and produce values in
// valid ranges.
func TestPropRNG(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 100; i++ {
			u := a.Float64()
			if u != b.Float64() || u < 0 || u >= 1 {
				return false
			}
			n := a.Intn(97)
			if n != b.Intn(97) || n < 0 || n >= 97 {
				return false
			}
			e := a.ExpFloat64()
			if e != b.ExpFloat64() || e < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n)%64 + 1
		p := NewRNG(seed).Perm(size)
		if len(p) != size {
			return false
		}
		s := append([]int(nil), p...)
		sort.Ints(s)
		for i := range s {
			if s[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGMoments(t *testing.T) {
	r := NewRNG(12345)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("uniform mean = %f", mean)
	}
	variance := sumSq/n - mean*mean
	if variance < 0.08 || variance > 0.09 {
		t.Fatalf("uniform variance = %f, want ~1/12", variance)
	}
	var esum float64
	for i := 0; i < n; i++ {
		esum += r.ExpFloat64()
	}
	if m := esum / n; m < 0.98 || m > 1.02 {
		t.Fatalf("exp mean = %f", m)
	}
	var nsum, nsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		nsum += v
		nsq += v * v
	}
	if m := nsum / n; m < -0.02 || m > 0.02 {
		t.Fatalf("normal mean = %f", m)
	}
	if v := nsq / n; v < 0.97 || v > 1.03 {
		t.Fatalf("normal variance = %f", v)
	}
}
