package sim

// External-completion hook: the bridge the real-wire transport backend
// (internal/netwire) uses to marry wall-clock I/O to the virtual clock.
//
// The kernel is the only clock in the system. When a simulated delivery
// depends on a real-world side effect — a payload that went out over an
// actual kernel socket and must be read back — the simulation cannot
// proceed past the delivery event until that side effect completes, and it
// must not let virtual time drift while waiting: wall time spent blocked on
// a syscall has no simulated cost, because the *modelled* wire time was
// already charged by the netsim link model. AwaitExternal is that pause
// button.

// AwaitExternal runs wait, which may block on real-world I/O, with the
// virtual clock frozen: no events are dispatched and Now() does not advance
// until wait returns. It may be called from kernel context (event
// callbacks) or from a running proc — both already execute inline in the
// single-threaded event loop, so simply not returning until the side effect
// completes is exactly the required semantics. The kernel counts calls (see
// ExternalWaits) so tests can audit that a wire-backed run actually crossed
// the bridge.
//
// wait must eventually return; a lost wire frame would otherwise hang the
// simulation. The netwire backend never waits on the wall clock: its reads
// are non-blocking, so a frame that is not on the socket when its delivery
// event runs fails at once as wire.lost.
func (k *Kernel) AwaitExternal(wait func()) {
	k.externalWaits++
	wait()
}

// ExternalWaits returns the number of AwaitExternal calls made so far —
// zero for a purely in-memory run, and one per wire-delivered frame when a
// real transport backend is attached.
func (k *Kernel) ExternalWaits() uint64 { return k.externalWaits }
