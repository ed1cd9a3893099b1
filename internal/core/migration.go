package core

// Barrier is the stage-2 flush barrier MPVM and UPVM share (paper §2.1,
// §2.2): the coordinator has told its peers to flush and waits for every
// member's ack. Members are fixed by host id when the barrier opens. A
// member's ack counts once; a member written off (lost mid-flush) is no
// longer waited on; an ack from a non-member, for another generation or
// after completion counts for nothing. It is plain data: the waiter keeps
// its own condition variable.
type Barrier struct {
	gen     int
	waiting []bool // by host id: members whose ack is still awaited
	// have counts the acks counted, want the members not written off.
	have, want int
}

// Open starts generation gen over hosts 0..n-1, member saying which of
// them the barrier waits on. Storage is reused.
func (b *Barrier) Open(gen, n int, member func(host int) bool) {
	b.gen, b.have, b.want = gen, 0, 0
	b.waiting = b.waiting[:0]
	for h := 0; h < n; h++ {
		m := member(h)
		b.waiting = append(b.waiting, m)
		if m {
			b.want++
		}
	}
}

// Close ends the generation unfinished: nothing of it counts any more.
func (b *Barrier) Close() { b.waiting = b.waiting[:0] }

// Gen returns the generation the barrier was last opened with.
func (b *Barrier) Gen() int { return b.gen }

// Ack counts host's ack of generation gen and reports whether it counted.
func (b *Barrier) Ack(gen, host int) bool {
	if gen != b.gen || !b.awaits(host) {
		return false
	}
	b.waiting[host] = false
	b.have++
	return true
}

// WriteOff stops waiting on host and reports whether it was awaited.
func (b *Barrier) WriteOff(host int) bool {
	if !b.awaits(host) {
		return false
	}
	b.waiting[host] = false
	b.want--
	return true
}

func (b *Barrier) awaits(host int) bool {
	return host >= 0 && host < len(b.waiting) && b.waiting[host]
}

// Done reports whether every member acknowledged or was written off.
func (b *Barrier) Done() bool { return b.have >= b.want }

// Counts returns the acks counted and the members not written off.
func (b *Barrier) Counts() (have, want int) { return b.have, b.want }

// Ledger records what became of each migration of a system whose VPs are
// named by ID (MPVM's stable tid, UPVM's ULP id): completed records, the
// placement, record and abort hooks, and the protocol-stage tracer. MPVM
// and UPVM embed one. Hooks run synchronously, in registration order.
type Ledger[ID any] struct {
	records     []MigrationRecord
	tracer      func(actor, stage, detail string)
	placeHooks  []func(id ID, host int)
	recordHooks []func(MigrationRecord)
	abortHooks  []func(id ID)
}

// Records returns every completed migration record in completion order.
func (l *Ledger[ID]) Records() []MigrationRecord { return l.records }

// SetTracer installs a protocol stage tracer (nil to disable): one event
// per stage, the paper's Figures 1 and 3 as timelines.
func (l *Ledger[ID]) SetTracer(fn func(actor, stage, detail string)) { l.tracer = fn }

// OnPlacement registers fn to run whenever a VP's placement commits (host
// -1: it exited). The scheduler's load index subscribes here.
func (l *Ledger[ID]) OnPlacement(fn func(id ID, host int)) {
	l.placeHooks = append(l.placeHooks, fn)
}

// OnRecord registers fn to run after each completed migration is recorded.
func (l *Ledger[ID]) OnRecord(fn func(MigrationRecord)) {
	l.recordHooks = append(l.recordHooks, fn)
}

// OnAbort registers fn to run whenever an in-flight migration is abandoned
// without a record.
func (l *Ledger[ID]) OnAbort(fn func(id ID)) { l.abortHooks = append(l.abortHooks, fn) }

// Trace reports one protocol stage to the tracer, if any.
func (l *Ledger[ID]) Trace(actor, stage, detail string) {
	if l.tracer != nil {
		l.tracer(actor, stage, detail)
	}
}

// Placed runs the placement hooks.
func (l *Ledger[ID]) Placed(id ID, host int) {
	for _, fn := range l.placeHooks {
		fn(id, host)
	}
}

// Record appends a completed migration's record and runs the record hooks.
func (l *Ledger[ID]) Record(rec MigrationRecord) {
	l.records = append(l.records, rec)
	for _, fn := range l.recordHooks {
		fn(rec)
	}
}

// Aborted runs the abort hooks.
func (l *Ledger[ID]) Aborted(id ID) {
	for _, fn := range l.abortHooks {
		fn(id)
	}
}
