// Package lintfixture holds option structs with fields nothing sets.
package lintfixture

// Config mixes options callers set with ones only the defaults touch.
type Config struct {
	Hosts   int     // set by a composite literal in Build
	Seed    uint64  // set by assignment in Build
	Chunk   int     // want `option .*Config\.Chunk is set nowhere outside its own defaults`
	RateBps float64 // want `option .*Config\.RateBps is set nowhere outside its own defaults`
	Hidden  int     `json:"hidden"` // filled by a decoder: exempt
	private int     // unexported: not an option
}

// DefaultConfig is where the one value lives; writes here do not count.
func DefaultConfig() Config {
	return Config{Chunk: 64, RateBps: 1e6}
}

func (c Config) withDefaults() Config {
	if c.Chunk == 0 {
		c.Chunk = 64
	}
	c.private = 1
	return c
}

// FleetPolicy is flagged through every suffix, not only Config.
type FleetPolicy struct {
	Shards int // want `option .*FleetPolicy\.Shards is set nowhere outside its own defaults`
	Depth  int // taking the address counts: flag.IntVar(&p.Depth, …)
}

// Settings does not end in an option suffix: its fields are not options.
type Settings struct {
	Unused int
}

// scenario is unexported: not part of anyone's surface.
type scenario struct {
	Unused int
}

func Build(seed uint64) (Config, *int) {
	c := Config{Hosts: 4}.withDefaults()
	c.Seed = seed
	var p FleetPolicy
	return c, &p.Depth
}

var _ = scenario{}
var _ = Settings{}
