package opt

import (
	"fmt"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// ExemplarSet is a training set: vectors of floating-point features
// ("digitized speech sound") each tagged with a category scalar, exactly
// the layout the paper describes. Sets are generated synthetically as
// Gaussian class clusters — a substitution for the paper's proprietary
// 500 KB–400 MB speech corpora that preserves the property Opt's cost
// depends on: exemplar count × dimensionality.
type ExemplarSet struct {
	Dim     int
	Classes int
	// features holds Len()×Dim values flat; labels holds Len() categories.
	features []float64
	labels   []int
	// ids are stable global exemplar identities (ADM redistribution
	// tracking); id i starts as exemplar i.
	ids []int
}

// ExemplarBytes returns the wire/storage size of one exemplar: Dim
// single-precision features plus the category scalar.
func ExemplarBytes(dim int) int { return (dim + 1) * 4 }

// GenerateExemplars builds a deterministic synthetic set: classes are
// Gaussian clusters with unit-ish separation, which a small MLP can learn —
// enough structure for convergence tests.
func GenerateExemplars(n, dim, classes int, seed uint64) *ExemplarSet {
	rng := sim.NewRNG(seed)
	set := &ExemplarSet{
		Dim:      dim,
		Classes:  classes,
		features: make([]float64, n*dim),
		labels:   make([]int, n),
		ids:      make([]int, n),
	}
	// Class centers.
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64() * 2
		}
	}
	for i := 0; i < n; i++ {
		c := i % classes
		set.labels[i] = c
		set.ids[i] = i
		row := set.features[i*dim : (i+1)*dim]
		for d := range row {
			row[d] = centers[c][d] + rng.NormFloat64()*0.6
		}
	}
	return set
}

// SizedSet builds a set whose total storage is approximately totalBytes,
// matching how the paper reports training sets by megabyte.
func SizedSet(totalBytes, dim, classes int, seed uint64) *ExemplarSet {
	n := totalBytes / ExemplarBytes(dim)
	if n < classes {
		n = classes
	}
	return GenerateExemplars(n, dim, classes, seed)
}

// pack appends the set's features and labels to buf — the exemplar body of
// a shard (Master.PackShard) and of an ADM fragment. Labels travel as
// float64s: the message buffer has no int vector.
func (s *ExemplarSet) pack(buf *core.Buffer) {
	labels := make([]float64, len(s.labels))
	for i, l := range s.labels {
		labels[i] = float64(l)
	}
	buf.PkFloat64s(s.features).PkFloat64s(labels)
}

// unpackExemplars reads what pack wrote into a set of p's shape, and is the
// one place that validates it: exactly count labels, count×InputDim feature
// values, every label a class. The features are carried by reference; the
// ids are zero and the caller's to fill.
func unpackExemplars(r *core.Reader, p Params, count int) (*ExemplarSet, error) {
	feats, err := r.UpkFloat64s()
	if err != nil {
		return nil, fmt.Errorf("opt: exemplar features: %w", err)
	}
	flabels, err := r.UpkFloat64s()
	if err != nil {
		return nil, fmt.Errorf("opt: exemplar labels: %w", err)
	}
	if len(flabels) != count || len(feats) != count*p.InputDim {
		return nil, fmt.Errorf("opt: %d exemplars announced, %d labels and %d feature values carried (dim %d)",
			count, len(flabels), len(feats), p.InputDim)
	}
	labels := make([]int, count)
	for i, f := range flabels {
		labels[i] = int(f)
		if labels[i] < 0 || labels[i] >= p.Classes {
			return nil, fmt.Errorf("opt: exemplar %d labelled %v, want a class in [0, %d)", i, f, p.Classes)
		}
	}
	return &ExemplarSet{Dim: p.InputDim, Classes: p.Classes,
		features: feats, labels: labels, ids: make([]int, count)}, nil
}

// Len returns the number of exemplars.
func (s *ExemplarSet) Len() int { return len(s.labels) }

// Bytes returns the set's total size.
func (s *ExemplarSet) Bytes() int { return s.Len() * ExemplarBytes(s.Dim) }

// Exemplar returns the features and label of exemplar i.
func (s *ExemplarSet) Exemplar(i int) ([]float64, int) {
	return s.features[i*s.Dim : (i+1)*s.Dim], s.labels[i]
}

// ID returns the stable global id of exemplar i.
func (s *ExemplarSet) ID(i int) int { return s.ids[i] }

// Slice returns a view [lo, hi) as a new set sharing storage.
func (s *ExemplarSet) Slice(lo, hi int) *ExemplarSet {
	return &ExemplarSet{
		Dim: s.Dim, Classes: s.Classes,
		features: s.features[lo*s.Dim : hi*s.Dim],
		labels:   s.labels[lo:hi],
		ids:      s.ids[lo:hi],
	}
}

// SplitEven partitions the set into n contiguous shards of near-equal size
// ("data is equally distributed among the slaves").
func (s *ExemplarSet) SplitEven(n int) []*ExemplarSet {
	shards := make([]*ExemplarSet, n)
	per := s.Len() / n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + per
		if i == n-1 {
			hi = s.Len()
		}
		shards[i] = s.Slice(lo, hi)
		lo = hi
	}
	return shards
}

// TakeTail removes the last n exemplars and returns them as a new,
// independently owned set (ADM fragments vacate from the tail; ordering
// need not be preserved, per §4.3).
func (s *ExemplarSet) TakeTail(n int) *ExemplarSet {
	if n > s.Len() {
		n = s.Len()
	}
	cut := s.Len() - n
	frag := &ExemplarSet{
		Dim: s.Dim, Classes: s.Classes,
		features: append([]float64(nil), s.features[cut*s.Dim:]...),
		labels:   append([]int(nil), s.labels[cut:]...),
		ids:      append([]int(nil), s.ids[cut:]...),
	}
	s.features = s.features[:cut*s.Dim]
	s.labels = s.labels[:cut]
	s.ids = s.ids[:cut]
	return frag
}

// Absorb appends another set's exemplars (must match shape).
func (s *ExemplarSet) Absorb(o *ExemplarSet) error {
	if o.Dim != s.Dim {
		return fmt.Errorf("opt: absorbing dim %d into dim %d", o.Dim, s.Dim)
	}
	s.features = append(s.features, o.features...)
	s.labels = append(s.labels, o.labels...)
	s.ids = append(s.ids, o.ids...)
	return nil
}

// Own converts a view into an independently owned copy (so ADM slaves can
// absorb and shed exemplars without aliasing the master's storage).
func (s *ExemplarSet) Own() *ExemplarSet {
	return &ExemplarSet{
		Dim: s.Dim, Classes: s.Classes,
		features: append([]float64(nil), s.features...),
		labels:   append([]int(nil), s.labels...),
		ids:      append([]int(nil), s.ids...),
	}
}
