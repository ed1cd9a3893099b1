package lintfixture

// Report reads every field, so only the unset rule speaks here.
func Report(p Params, r RunSpec) float64 {
	return float64(p.Keyed+p.Assigned+p.Counted+p.Table["k"]+r.Hosts+r.Slaves) + p.Nested.Step
}
