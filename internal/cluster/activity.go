package cluster

import "pvmigrate/internal/sim"

// ownerActivity drives a host's owner presence from a stochastic model:
// exponentially distributed idle and busy periods. This reproduces the
// paper's setting — workstations that are "idle or partially idle much of
// the time" but whose owners expect full performance when they return.
type ownerActivity struct {
	host     *Host
	rng      *sim.RNG
	meanIdle sim.Time
	meanBusy sim.Time
}

// StartOwnerActivity begins toggling the host's owner state with the given
// mean idle (owner away) and busy (owner present) durations.
func StartOwnerActivity(h *Host, seed uint64, meanIdle, meanBusy sim.Time) {
	a := &ownerActivity{host: h, rng: sim.NewRNG(seed), meanIdle: meanIdle, meanBusy: meanBusy}
	a.scheduleArrival()
}

func (a *ownerActivity) scheduleArrival() {
	d := a.rng.ExpDuration(a.meanIdle)
	a.host.cluster.k.Schedule(d, func() {
		a.host.SetOwnerActive(true)
		a.scheduleDeparture()
	})
}

func (a *ownerActivity) scheduleDeparture() {
	d := a.rng.ExpDuration(a.meanBusy)
	a.host.cluster.k.Schedule(d, func() {
		a.host.SetOwnerActive(false)
		a.scheduleArrival()
	})
}

// BackgroundLoad maintains a target number of competing compute jobs on a
// host — the "excessively high machine load" migration trigger.
type BackgroundLoad struct {
	host    *Host
	handles []LoadHandle
}

// NewBackgroundLoad returns a load controller for h with zero jobs.
func NewBackgroundLoad(h *Host) *BackgroundLoad {
	return &BackgroundLoad{host: h}
}

// Set adjusts the number of background jobs to n.
func (b *BackgroundLoad) Set(n int) {
	for len(b.handles) < n {
		b.handles = append(b.handles, b.host.cpu.AddLoad())
	}
	for len(b.handles) > n {
		last := len(b.handles) - 1
		b.handles[last].Remove()
		b.handles = b.handles[:last]
	}
}
