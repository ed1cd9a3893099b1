//go:build lintfixture_never

package skipfix

// Excluded is behind a build tag the analysis build never sets: the loader
// must leave it out.
func Excluded() int { return 0 }
