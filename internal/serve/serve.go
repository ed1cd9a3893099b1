// Package serve is pvmigrate's serve mode: a long-running daemon owning a
// simulated cluster and exposing an HTTP/JSON control plane — submit jobs,
// inspect hosts and tasks, command and watch migrations, trigger rollback,
// inject faults, and stream metrics and trace events.
//
// # The control-plane ↔ kernel bridge contract
//
// The simulation kernel is single-threaded and owns the only clock. The
// HTTP layer lives on the wall-clock side: handlers run on real OS threads
// at real times, while the cluster's virtual time advances only when a
// command tells it to. The two sides meet at exactly one point, the
// Server's mutex-serialized apply path:
//
//   - every mutation (advance, submit, migrate, fault, owner, rollback) is
//     a Command, stamped with the virtual instant it applies at;
//   - the command is appended to the journal first — real disk I/O,
//     performed under sim.Kernel.AwaitExternal so the virtual clock is
//     provably frozen while the wall-clock side effect completes (the same
//     bridge discipline as internal/netwire, and auditable the same way:
//     Kernel.ExternalWaits counts the crossings);
//   - only then does the command execute inside the kernel, either by
//     running the event loop up to a new virtual deadline (advance) or by
//     scheduling a kernel-context callback at the current instant.
//
// Queries (GET endpoints) never mutate and are not journaled.
//
// # Journal / replay semantics
//
// The journal is a command log: one JSON header line (version + cluster
// config), then one line per command in application order. Because the
// cluster is deterministic and every mutation flows through the journal —
// including commands that *failed*, whose errors are themselves
// deterministic — re-executing the log headlessly against a fresh cluster
// (Replay) reproduces the live session bit for bit: same trace events,
// same migration records, same fingerprint. A torn final line (the daemon
// died mid-append) is tolerated and dropped; a malformed line anywhere
// else is corruption and refuses to load.
//
// # Concurrency exception
//
// This package is, with internal/sim and internal/sweep, one of the few
// sanctioned users of host concurrency (goroutines, mutexes, channels), and
// with internal/sim and internal/netwire one of the few that read the wall
// clock: HTTP handlers and SSE subscriber fan-out
// are inherently concurrent, and the optional pacer maps wall-clock ticks
// to virtual advances. pvmlint's allowlists name this package explicitly;
// the same idioms anywhere else in sim-driven code still flag.
package serve

import (
	"pvmigrate/internal/errs"
)

// Structured error codes for control-plane responses. Every non-2xx
// response body is the errs JSON envelope {code, message, context}.
const (
	// CodeBadRequest: the request body or parameters do not describe a
	// valid command.
	CodeBadRequest errs.Code = "serve.bad-request"
	// CodeNotFound: the referenced job, task or host does not exist.
	CodeNotFound errs.Code = "serve.not-found"
	// CodeConflict: the command is valid but the cluster's state refuses
	// it (e.g. an opt job is already running).
	CodeConflict errs.Code = "serve.conflict"
	// CodeJournal: the command journal could not be written or parsed.
	CodeJournal errs.Code = "serve.journal"
	// CodeUnknownCommand: the command kind is not one this build knows —
	// on the live path a client bug, on replay a journal written by a newer
	// daemon. Replay aborts on it rather than silently skipping the
	// command, which would desynchronize everything after it.
	CodeUnknownCommand errs.Code = "serve.unknown-command"
	// CodeReplay: a journal replay diverged from the recorded session.
	CodeReplay errs.Code = "serve.replay"
	// CodeShutdown: the daemon is shutting down, or its Core is closed,
	// and accepts no commands.
	CodeShutdown errs.Code = "serve.shutting-down"
	// CodeInternal: the daemon failed to render a response; a bug, not a
	// client error.
	CodeInternal errs.Code = "serve.internal"
)
