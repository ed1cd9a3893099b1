// Package lintfixture holds option structs whose every field a caller sets.
package lintfixture

// Params has one field per way of writing it.
type Params struct {
	Keyed    int
	Assigned int
	Counted  int
	Nested   Inner
	Table    map[string]int
	Pointed  int
}

// Inner is reached through Params.Nested.
type Inner struct{ Step float64 }

// RunSpec is set by an unkeyed literal, which writes every field.
type RunSpec struct {
	Hosts, Slaves int
}

func Use() (Params, RunSpec, *int) {
	p := Params{Keyed: 1, Table: map[string]int{}}
	p.Assigned = 2
	p.Counted++
	p.Nested.Step = 0.5
	p.Table["k"] = 3
	return p, RunSpec{2, 2}, &p.Pointed
}
