package gs

import "pvmigrate/internal/errs"

// Structured error codes for scheduler decisions that cannot be carried
// out. Targets return these so the control plane (internal/serve) can
// surface machine-readable envelopes instead of opaque strings.
const (
	// CodeNoDestination: every candidate host was rejected (dead, owner
	// active, or architecturally incompatible).
	CodeNoDestination errs.Code = "gs.no-destination"
	// CodeNoMovable: the source host has no movable work unit (VP, ULP,
	// or ADM share) to evict.
	CodeNoMovable errs.Code = "gs.no-movable"
)
