// Fixture: cfg.AllocHot lists Hot and Gone. Gone names no function in this
// package, so the root it once anchored would drop its coverage silently;
// the key is a finding at the package clause.
package deadroot // want `cfg.AllocHot key "Gone" names no function declared in pvmigrate/internal/lintfixture`

// Hot resolves: silent.
func Hot(n int) int { return n + 1 }
