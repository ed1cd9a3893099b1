package adm

import "pvmigrate/internal/errs"

// Structured error codes for ADM's redistribution inputs. Each names a
// refusal that leaves the state unchanged: a plan not made, a fragment not
// absorbed, a transition not taken.
const (
	// CodeBadPartition: Partition's powers and active flags disagree in
	// length, a power is negative, or no active worker has power.
	CodeBadPartition errs.Code = "adm.bad-partition"
	// CodeBadPlan: PlanMoves' current and target shares disagree in length
	// or in total.
	CodeBadPlan errs.Code = "adm.bad-plan"
	// CodeBadFragment: a fragment's flags do not match its ids, an id is
	// not a whole number, or Absorb finds an id outside the job or already
	// held.
	CodeBadFragment errs.Code = "adm.bad-fragment"
	// CodeNoTransition: the FSM declares no transition for the event in
	// its current state.
	CodeNoTransition errs.Code = "adm.no-transition"
)
