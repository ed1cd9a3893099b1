// Fixture: a conforming registration — in range, unique, encoder and
// decoder present, golden-frame coverage in golden_test.go, shape pinned
// in LOCK. Fully silent. At's type is an alias, as sim.Time is: LOCK pins
// the type the alias names (time.Duration<int64>), never the alias's name.
package golden

import (
	"time"

	"pvmigrate/internal/wirefmt"
)

type stamp = time.Duration

type msgA struct {
	X  int
	At stamp
}

func enc(dst []byte, v any) ([]byte, error) { return dst, nil }

func dec(r *wirefmt.Reader) (any, error) { return nil, nil }

func init() {
	wirefmt.Register(80, "fix.ok", &msgA{}, enc, dec)
}
