package ft

import (
	"fmt"

	"pvmigrate/internal/errs"
)

// control.go holds the serve-mode hooks: the operations a long-running
// control plane (internal/serve) needs beyond what the batch harness uses —
// commanding a rollback without a failure, and detaching a finished job so
// the manager can accept the next one.

// Structured error codes for job submission, control-plane rollback/clear
// requests and recovery.
const (
	// CodeNoJob: the manager has no registered job.
	CodeNoJob errs.Code = "ft.no-job"
	// CodeJobFinished: the job already ran to completion (or died); there
	// is nothing left to roll back.
	CodeJobFinished errs.Code = "ft.job-finished"
	// CodeNoCheckpoint: no coordinated checkpoint round has closed yet, or
	// its master image cannot be read back, so a rollback has no recovery
	// point to land on.
	CodeNoCheckpoint errs.Code = "ft.no-checkpoint"
	// CodeJobRunning: the manager already has a job; one runs at a time.
	CodeJobRunning errs.Code = "ft.job-running"
	// CodeNoSlaves: a job spec names no slave host.
	CodeNoSlaves errs.Code = "ft.no-slaves"
	// CodeMasterLost: the host running the master was declared dead; the
	// job cannot be recovered.
	CodeMasterLost errs.Code = "ft.master-lost"
)

// Job returns the manager's registered job, or nil.
func (mgr *Manager) Job() *Job { return mgr.job }

// Epoch returns the current recovery epoch.
func (mgr *Manager) Epoch() int { return mgr.epoch }

// ForceRollback commands a rollback without a host failure: the epoch is
// bumped (fencing every in-flight protocol message) and the master is
// interrupted exactly as HostDead would, so it rewinds to the last
// installed checkpoint and replays from there. No respawns are pending, so
// recovery is just the reload. Runs in kernel context.
func (mgr *Manager) ForceRollback() error {
	j := mgr.job
	if j == nil {
		return errs.Newf(CodeNoJob, "no job to roll back")
	}
	mmt := mgr.sys.Task(j.masterOrig)
	if j.out.Done || mmt == nil || mmt.Exited() {
		return errs.Newf(CodeJobFinished, "job already finished")
	}
	if mgr.committed < 0 {
		return errs.Newf(CodeNoCheckpoint, "no committed checkpoint to roll back to")
	}
	mgr.epoch++
	mgr.trace("GS", "ft:rollback-forced",
		fmt.Sprintf("commanded rollback; epoch %d", mgr.epoch))
	mmt.Proc().Interrupt(rollbackSignal{Epoch: mgr.epoch})
	return nil
}

// ClearFinishedJob detaches the registered job once its master has exited,
// clearing the committed-checkpoint watermark so the next StartJob begins
// its own checkpoint history. It reports whether a job was cleared; a
// still-running job is left in place.
func (mgr *Manager) ClearFinishedJob() bool {
	j := mgr.job
	if j == nil {
		return false
	}
	mmt := mgr.sys.Task(j.masterOrig)
	if mmt != nil && !mmt.Exited() {
		return false
	}
	mgr.job = nil
	mgr.committed = -1
	return true
}
