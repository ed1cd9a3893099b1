// Package metrics provides the small statistics and table-rendering
// utilities the benchmark harness uses to print paper-versus-measured
// comparisons.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series accumulates scalar observations.
type Series struct {
	values []float64
}

// Add appends an observation.
func (s *Series) Add(v float64) { s.values = append(s.values, v) }

// N returns the observation count.
func (s *Series) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks, the same convention as numpy's
// default. An empty series reports 0; p outside [0, 100] is clamped.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Values returns a copy of the observations in insertion order.
func (s *Series) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// Summary condenses a series into the fixed quantile set the serving
// reports and the control plane's metrics snapshots use. Percentiles come
// from Percentile, so a summary is reproducible from the raw series.
type Summary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Summary computes the series' summary.
func (s *Series) Summary() Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Percentile(50),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
		Max:  s.Max(),
	}
}

// Max returns the largest observation (0 for an empty series).
func (s *Series) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Table renders fixed-width text tables for the experiment harness.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) *Table {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	return t
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

// DeltaPct returns the relative difference of measured vs reference, in
// percent (positive = measured larger).
func DeltaPct(measured, reference float64) float64 {
	if reference == 0 {
		return 0
	}
	return (measured - reference) / reference * 100
}
