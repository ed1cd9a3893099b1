package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Max() != 0 || s.N() != 0 {
		t.Fatal("empty series not all-zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%f", s.N(), s.Mean())
	}
	if s.Max() != 9 {
		t.Fatalf("max=%f", s.Max())
	}
}

func TestSeriesPercentile(t *testing.T) {
	var empty Series
	if empty.Percentile(50) != 0 {
		t.Fatal("empty series percentile should be 0")
	}
	var s Series
	// Added out of order: Percentile must sort a copy.
	for _, v := range []float64{40, 10, 30, 20} {
		s.Add(v)
	}
	cases := []struct{ p, want float64 }{
		{-5, 10}, {0, 10}, {25, 17.5}, {50, 25}, {75, 32.5}, {100, 40}, {120, 40},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Percentile must not reorder the underlying values.
	if s.values[0] != 40 {
		t.Fatal("Percentile mutated the series")
	}
	var one Series
	one.Add(7)
	if one.Percentile(95) != 7 {
		t.Fatalf("single-value p95 = %v", one.Percentile(95))
	}
}

func TestPropSeriesPercentileWithinBounds(t *testing.T) {
	f := func(vals []float64, p float64) bool {
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		q := s.Percentile(math.Mod(math.Abs(p), 100))
		return q >= slices.Min(s.Values())-1e-9 && q <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSeriesMeanWithinBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // avoid float overflow in the sum, not a Series bug
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= slices.Min(s.Values())-1e-9 && m <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "col1", "longer-column")
	tbl.AddRow("a", 3.14159)
	tbl.AddRow("bbbb", 2)
	tbl.AddNote("note %d", 42)
	out := tbl.String()
	for _, want := range []string{"Title", "col1", "longer-column", "3.14", "bbbb", "note 42", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Header and separator align.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header/separator width mismatch:\n%s", out)
	}
}

func TestDeltaPct(t *testing.T) {
	if d := DeltaPct(110, 100); math.Abs(d-10) > 1e-9 {
		t.Fatalf("DeltaPct = %f", d)
	}
	if d := DeltaPct(90, 100); math.Abs(d+10) > 1e-9 {
		t.Fatalf("DeltaPct = %f", d)
	}
	if DeltaPct(5, 0) != 0 {
		t.Fatal("zero reference should yield 0")
	}
}
