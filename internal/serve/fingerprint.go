package serve

import (
	"fmt"
	"hash/fnv"
	"math"
)

// lineSep ends each folded fingerprint line. It is a package-level slice
// because a literal passed through the hash.Hash64 interface escapes: one
// allocation per folded line.
var lineSep = []byte{0}

// Fingerprint condenses everything schedule-visible about a session into
// one FNV-1a 64 value: the clock, the command counts, every trace event,
// every migration and recovery record, the checkpoint commit history, and
// each job's outcome. A live session and its headless journal replay must
// produce equal fingerprints — that equality is the determinism contract
// the journal tests pin. Kernel.ExternalWaits is deliberately excluded:
// the live daemon crosses the bridge once per journal append, the replay
// never does, and neither crossing moves the virtual schedule.
func (c *Core) Fingerprint() uint64 {
	h := fnv.New64a()
	put := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
		h.Write(lineSep)
	}
	put("now=%d applied=%d failed=%d", int64(c.w.K.Now()), c.applied, c.failed)
	for _, e := range c.w.Log.Events() {
		put("ev %d %s %s %s", int64(e.At), e.Actor, e.Stage, e.Detail)
	}
	for _, r := range c.w.MPVM.Records() {
		put("mig %+v", r)
	}
	for _, r := range c.w.Mgr.Records() {
		put("rec %+v", r)
	}
	// A session without plans folds nothing here, so journals recorded
	// before the plan command existed keep their fingerprints.
	for _, p := range c.plans {
		put("plan %d %s done=%t", p.ID, p.Name, p.Done)
		if p.Result == nil {
			continue
		}
		put("plan-res moved=%d failed=%d elapsed=%d",
			p.Result.Moved, p.Result.Failed, int64(p.Result.Elapsed))
		for _, g := range p.Result.Groups {
			for _, o := range g.Outcomes {
				put("plan-out %s %d->%d %s", g.Name, int(o.VP), o.Dest, o.Err)
			}
		}
	}
	put("ckpt=%d committed=%d", c.w.Mgr.Checkpoints(), c.w.Mgr.CommittedIteration())
	for _, cm := range c.w.Mgr.Store().Commits() {
		put("commit %s@%d", cm.Key, cm.Epoch)
	}
	for _, j := range c.jobs {
		put("job %d %s at=%d", j.ID, j.Kind, int64(j.SubmittedAt))
		switch j.Kind {
		case JobOpt:
			out := j.Opt.Out()
			put("opt done=%t err=%t fin=%d", out.Done, out.Err != nil, int64(out.FinishedAt))
			if out.Result != nil {
				put("opt iter=%d loss=%d", out.Result.Iterations,
					math.Float64bits(out.Result.FinalLoss))
			}
		case JobLoad:
			lj := j.Load
			put("load done=%t err=%t completed=%d violations=%d fin=%d",
				lj.Done, lj.Err != nil, lj.Completed, lj.Violations, int64(lj.FinishedAt))
			for _, v := range lj.Latency.Values() {
				put("lat %d", math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}

// FingerprintHex is the fingerprint formatted for the API and the CLI.
func (c *Core) FingerprintHex() string {
	return fmt.Sprintf("%016x", c.Fingerprint())
}
