package lintfixture

// Report reads every field, so only the unset rule speaks here.
func Report(c Config, p FleetPolicy, s Settings) int {
	return c.Hosts + int(c.Seed) + int(c.RateBps) + c.private + p.Shards + s.Unused + scenario{}.Unused
}
