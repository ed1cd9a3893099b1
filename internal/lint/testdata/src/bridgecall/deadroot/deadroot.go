// Fixture: cfg.BridgeFuncs lists Pump and Gone. Gone names no function in
// this package, so the key is a finding at the package clause.
package deadroot // want `cfg.BridgeFuncs key "Gone" names no function declared in pvmigrate/internal/lintfixture`

import "os"

// Pump resolves and is audited: silent.
func Pump() {
	os.Remove("x")
}
