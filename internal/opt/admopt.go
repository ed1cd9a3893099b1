package opt

import (
	"fmt"
	"math"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// TagADM carries all ADMopt coordination messages (ops encoded in the
// buffer: redist-request, enter-redist, state, plan, frag, redist-done,
// redist-complete).
const TagADM = 21

// ADMParams extends Params with the data-movement cost knobs.
type ADMParams struct {
	Params
	// ChunkExemplars is the inner-loop granularity between migration-event
	// flag checks (rapid response requires small chunks; each check costs
	// a conditional — part of ADM's overhead).
	ChunkExemplars int
	// Stats collects measurements across the application's VPs.
	Stats *ADMStats
}

const (
	// mergeFlopsPerByte charges the receiver for integrating absorbed
	// exemplars into its arrays and flag structures (fitted to Table 6's
	// effective redistribution rate).
	mergeFlopsPerByte float64 = 8.2
	// redistFixedFlops charges each participant for the repartitioning
	// computation and synchronization bookkeeping per redistribution round.
	redistFixedFlops float64 = 6.5e6
)

// ADMStats aggregates what the ADMopt VPs observed.
type ADMStats struct {
	// Records holds one entry per withdrawal, with Start = the moment the
	// migration signal reached the slave and Reintegrated = receipt of the
	// master's redistribution-complete message (the paper's ADM
	// obtrusiveness == migration cost, §4.3.3).
	Records []core.MigrationRecord
	// Redistributions counts completed redistribution rounds.
	Redistributions int
}

func (p ADMParams) withDefaults() ADMParams {
	p.Params = p.Params.withDefaults()
	if p.Overhead == 1.0 {
		// ADM's measured quiet-case penalty (Table 5): the FSM switch,
		// per-chunk flag checks, and the processed-exemplar array.
		p.Overhead = 1.23
	}
	if p.ChunkExemplars == 0 {
		p.ChunkExemplars = 100
	}
	if p.Stats == nil {
		p.Stats = &ADMStats{}
	}
	return p
}

// ADMFSM builds the paper's Figure 4 state machine that every ADMopt slave
// runs: normal computing (net-received begins a new iteration), migration
// event and load redistribution, and inactivity when a process has no data
// over which to compute. The harness renders its table as Figure 4.
func ADMFSM() *adm.FSM {
	f := adm.NewFSM("compute")
	f.On("compute", "net-received", "compute").
		On("compute", "migration-event", "redistribute").
		On("compute", "enter-redist", "redistribute").
		On("compute", "iteration-done", "reduce").
		On("compute", "done", "finished").
		On("reduce", "net-received", "compute").
		On("reduce", "enter-redist", "redistribute").
		On("reduce", "done", "finished").
		On("redistribute", "redistributed", "compute").
		On("redistribute", "withdrawn", "inactive").
		On("inactive", "done", "finished")
	return f
}

// slaveState is a slave's report to the master at redistribution time.
type slaveState struct {
	count       int
	power       float64
	withdrawing bool
}

// RunADMMaster executes the ADMopt master: the same gradient/update loop as
// RunMaster, but interleaved with redistribution rounds whenever a slave
// reports a migration event. Withdrawn slaves leave the active set; their
// partially accumulated gradients are handed to the master so every
// exemplar contributes exactly once per iteration.
func RunADMMaster(vp core.VP, slaves []core.TID, ap ADMParams) (*Result, error) {
	ap = ap.withDefaults()
	m, err := NewMaster(ap.Params, len(slaves))
	if err != nil {
		return nil, err
	}
	// A shard travels behind the global id of its first exemplar: exemplars
	// keep their ids as fragments move between slaves.
	for i, s := range slaves {
		buf := m.PackShard(core.NewBuffer().PkInt(m.shardLo(i)), i)
		if err := vp.Send(s, TagShard, buf); err != nil {
			return nil, err
		}
	}

	active := make(map[core.TID]bool, len(slaves))
	for _, s := range slaves {
		active[s] = true
	}
	for !m.Done() {
		netBuf := m.PackNet(core.NewBuffer())
		for _, s := range slaves {
			if active[s] {
				if err := vp.Send(s, TagNet, netBuf); err != nil {
					return nil, err
				}
			}
		}
		pending := make(map[core.TID]bool)
		for s, a := range active {
			if a {
				pending[s] = true
			}
		}
		for len(pending) > 0 {
			src, tag, r, err := vp.Recv(core.AnyTID, core.AnyTag)
			if err != nil {
				return nil, err
			}
			switch tag {
			case TagGrad:
				if err := m.Absorb(r); err != nil {
					return nil, err
				}
				delete(pending, src)
			case TagADM:
				if r.UpkString() != "redist-request" {
					continue
				}
				withdrawn, held, err := runRedistribution(vp, slaves, active)
				if err != nil {
					return nil, err
				}
				if withdrawn != core.NoTID {
					active[withdrawn] = false
					if pending[withdrawn] {
						// Its processed exemplars' contribution arrives
						// with the withdrawal; the unprocessed ones moved
						// to still-pending receivers.
						if err := m.Absorb(held); err != nil {
							return nil, err
						}
						delete(pending, withdrawn)
					}
				}
				ap.Stats.Redistributions++
			}
		}
		if err := m.Update(vp); err != nil {
			return nil, err
		}
	}
	done := core.NewBuffer().PkInt(-1)
	for _, s := range slaves {
		if err := vp.Send(s, TagDone, done); err != nil {
			return nil, err
		}
	}
	return m.Result(), nil
}

// runRedistribution coordinates one redistribution round at the master,
// the requester's "redist-request" having been received. It returns the
// slave that withdrew, if any, and a reader positioned at the gradient
// reply that slave attached to its state report: what it had accumulated
// of the open iteration.
func runRedistribution(vp core.VP, slaves []core.TID,
	active map[core.TID]bool) (withdrawn core.TID, held *core.Reader, err error) {

	// Tell every active slave to pause at its next flag check.
	enter := core.NewBuffer().PkString("enter-redist")
	for _, s := range slaves {
		if active[s] {
			if err := vp.Send(s, TagADM, enter); err != nil {
				return core.NoTID, nil, err
			}
		}
	}
	// Collect states.
	states := make(map[core.TID]*slaveState)
	for {
		allIn := true
		for _, s := range slaves {
			if active[s] && states[s] == nil {
				allIn = false
			}
		}
		if allIn {
			break
		}
		src, _, sr, err := vp.Recv(core.AnyTID, TagADM)
		if err != nil {
			return core.NoTID, nil, err
		}
		if sr.UpkString() != "state" {
			continue
		}
		sr.UpkInt() // the reporter's rank; the master knows it by src
		count, pw, w := sr.UpkCount(), sr.UpkFloat64s(), sr.UpkInt()
		if err := sr.Err(); err != nil {
			return core.NoTID, nil, fmt.Errorf("opt: ADM state report from %v: %w", src, err)
		}
		if len(pw) == 0 {
			return core.NoTID, nil, fmt.Errorf("opt: ADM state report from %v carries no power", src)
		}
		st := &slaveState{count: count, power: pw[0], withdrawing: w == 1}
		if st.withdrawing {
			// Its gradient reply — what it had accumulated of the open
			// iteration — follows, and is the caller's to absorb.
			withdrawn, held = src, sr
		}
		states[src] = st
	}

	// Recompute the partition over the remaining active slaves.
	n := len(slaves)
	powers := make([]float64, n)
	act := make([]bool, n)
	current := make([]int, n)
	total := 0
	for i, s := range slaves {
		if !active[s] {
			continue
		}
		st := states[s]
		current[i] = st.count
		total += st.count
		powers[i] = st.power
		act[i] = !st.withdrawing
	}
	target, err := adm.Partition(total, powers, act)
	if err != nil {
		return core.NoTID, nil, err
	}
	moves, err := adm.PlanMoves(current, target)
	if err != nil {
		return core.NoTID, nil, err
	}
	// Broadcast the plan: each slave learns its outgoing moves and its
	// expected incoming exemplar count.
	incoming := make([]int, n)
	for _, m := range moves {
		incoming[m.To] += m.Count
	}
	planBuf := core.NewBuffer().PkString("plan").PkInt(len(moves))
	for _, m := range moves {
		planBuf.PkInt(m.From).PkInt(m.To).PkInt(m.Count)
	}
	for i := range slaves {
		planBuf.PkInt(incoming[i])
	}
	for _, s := range slaves {
		if active[s] {
			if err := vp.Send(s, TagADM, planBuf); err != nil {
				return core.NoTID, nil, err
			}
		}
	}
	// Await completion acks, then release everyone.
	acks := 0
	want := 0
	for _, s := range slaves {
		if active[s] {
			want++
		}
	}
	for acks < want {
		_, _, ar, err := vp.Recv(core.AnyTID, TagADM)
		if err != nil {
			return core.NoTID, nil, err
		}
		if ar.UpkString() == "redist-done" {
			acks++
		}
	}
	complete := core.NewBuffer().PkString("redist-complete")
	for _, s := range slaves {
		if active[s] {
			if err := vp.Send(s, TagADM, complete); err != nil {
				return core.NoTID, nil, err
			}
		}
	}
	return withdrawn, held, nil
}

// RunADMSlave executes one ADMopt slave: the event-driven finite-state
// machine of Figure 4, with migration-event flag checks embedded in the
// inner computational loop (paper §2.3).
func RunADMSlave(vp core.VP, master core.TID, rank int, peers []core.TID,
	events *adm.EventQueue, ap ADMParams) error {

	ap = ap.withDefaults()
	_, _, r, err := vp.Recv(master, TagShard)
	if err != nil {
		return err
	}
	idLo := r.UpkCount() // the shard's first exemplar id
	sl := &admSlave{
		Slave: NewSlave(ap.Params),
		vp:    vp, master: master, rank: rank, peers: peers,
		events: events, ap: ap, fsm: ADMFSM(),
	}
	if err := sl.LoadShard(r); err != nil {
		return err
	}
	if total := ap.NumExemplars(); idLo > total || sl.count > total-idLo {
		return fmt.Errorf("opt: ADM shard holds ids [%d, %d), not within the job's %d exemplars", idLo, idLo+sl.count, total)
	}
	sl.shard = adm.NewShard(idLo, idLo+sl.count)
	if ap.Real {
		// An owned copy: the slave absorbs and sheds exemplars, and must not
		// alias the storage the master packed.
		sl.local = sl.local.Own()
		for i := range sl.local.ids {
			sl.local.ids[i] = idLo + i
		}
		sl.hid = make([]float64, ap.Hidden)
		sl.out = make([]float64, ap.Classes)
	}
	return sl.run()
}

// admSlave bundles one slave's state: the shared slave core (shard data,
// net, reply layout) and what the ADM protocol adds around it.
type admSlave struct {
	// Slave's local holds the exemplar data in real mode, row i being
	// exemplar shard.ID(i): fragments leave from the tail of both and
	// arrive at the tail of both, so a shard index is a local index (iterate
	// checks it). Its count is the shard as first loaded; shard.Len() is the
	// live one.
	*Slave

	vp     core.VP
	master core.TID
	rank   int
	peers  []core.TID
	events *adm.EventQueue
	ap     ADMParams
	fsm    *adm.FSM

	shard *adm.Shard

	grad        *Gradient // nil in cost-model mode
	partialLoss float64
	processed   int // exemplars this slave processed this iteration
	withdrawing bool
	withdrawAt  int64 // event arrival, ns
	// cursor: every shard position below it is processed this iteration, so
	// the next chunk is searched for from here, not from the shard's start.
	cursor int
	// Real-mode scratch reused across exemplars: the forward pass's
	// activations.
	hid, out []float64
}

func (s *admSlave) run() error {
	for {
		// reduce state: wait for the net (or control traffic).
		_, tag, r, err := s.vp.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return err
		}
		switch tag {
		case TagDone:
			s.fire("done")
			return nil
		case TagADM:
			if r.UpkString() == "enter-redist" {
				s.fire("enter-redist")
				if err := s.participateRedist(false); err != nil {
					return err
				}
				if s.withdrawing {
					return s.waitDone()
				}
				s.fire("redistributed")
			}
			continue
		case TagNet:
			// fall through to the iteration below
		default:
			continue
		}
		s.fire("net-received")
		if _, err := s.LoadNet(r); err != nil {
			return err
		}
		// One iteration: process every unprocessed local exemplar, in
		// chunks, with flag checks between chunks.
		s.cursor, s.processed = 0, 0
		s.shard.Reset()
		s.grad = nil
		s.partialLoss = 0
		if s.ap.Real {
			s.grad = NewGradient(s.net)
		}
		if err := s.iterate(); err != nil {
			return err
		}
		if s.withdrawing {
			return s.waitDone()
		}
		// iteration-done: ship the partial gradient.
		buf := core.NewBuffer()
		s.packReply(buf, s.partialLoss, s.grad, s.processed)
		s.fire("iteration-done")
		if err := s.vp.Send(s.master, TagGrad, buf); err != nil {
			return err
		}
	}
}

// iterate processes unprocessed exemplars chunk by chunk until none remain
// (absorbed exemplars extend the work), checking for migration events
// between chunks.
func (s *admSlave) iterate() error {
	for {
		// The next chunk: the unprocessed exemplars of [cursor, end).
		end, n := s.shard.NextChunk(s.cursor, s.ap.ChunkExemplars)
		if n == 0 {
			return nil
		}
		if err := s.vp.Compute(s.cost.GradientFlops(n)); err != nil {
			return err
		}
		if s.ap.Real {
			s.accumulate(s.cursor, end)
		}
		s.shard.MarkRange(s.cursor, end)
		s.cursor = end
		s.processed += n
		// The migration-event flag check (and any pending coordination).
		if s.events.Pending() {
			ev, _ := s.events.Take()
			s.withdrawing = ev.Kind == "withdraw"
			s.withdrawAt = int64(ev.At)
			s.fire("migration-event")
			req := core.NewBuffer().PkString("redist-request").PkInt(boolToInt(s.withdrawing))
			if err := s.vp.Send(s.master, TagADM, req); err != nil {
				return err
			}
			if err := s.participateRedist(true); err != nil {
				return err
			}
			if s.withdrawing {
				return nil
			}
			s.fire("redistributed")
			continue
		}
		if _, _, cr, ok, _ := s.vp.NRecv(core.AnyTID, TagADM); ok && cr.UpkString() == "enter-redist" {
			s.fire("enter-redist")
			if err := s.participateRedist(false); err != nil {
				return err
			}
			s.fire("redistributed")
		}
	}
}

// accumulate adds the gradient and loss of the unprocessed exemplars in
// shard positions [from, end) to the iteration's, in position order.
func (s *admSlave) accumulate(from, end int) {
	for i := from; i < end; i++ {
		if s.shard.Processed(i) {
			continue
		}
		if id := s.shard.ID(i); s.local.ID(i) != id {
			panic(fmt.Sprintf("opt: ADM slave %d: local row %d holds exemplar %d, shard says %d",
				s.rank, i, s.local.ID(i), id))
		}
		s.net.AccumulateGradient(s.local, i, i+1, s.grad)
		x, label := s.local.Exemplar(i)
		s.net.forward(x, s.hid, s.out)
		pr := s.out[label]
		if pr < 1e-300 {
			pr = 1e-300
		}
		s.partialLoss += -math.Log(pr)
	}
}

// participateRedist runs one redistribution round from a slave's
// perspective. If requested is true, this slave initiated the round (it
// already sent redist-request and must still consume the master's
// enter-redist message).
func (s *admSlave) participateRedist(requested bool) error {
	p := s.ap.Params
	if requested {
		// Consume the master's broadcast enter-redist.
		for {
			_, _, r, err := s.vp.Recv(s.master, TagADM)
			if err != nil {
				return err
			}
			if r.UpkString() == "enter-redist" {
				break
			}
		}
	}
	// Repartition bookkeeping cost.
	if err := s.vp.Compute(redistFixedFlops); err != nil {
		return err
	}
	// Report state; a withdrawing slave attaches its partial gradient.
	host := s.vp.Host()
	power := host.Spec().Speed / float64(1+host.LoadAverage())
	st := core.NewBuffer().PkString("state").PkInt(s.rank).PkInt(s.shard.Len()).
		PkFloat64s([]float64{power}).PkInt(boolToInt(s.withdrawing))
	if s.withdrawing {
		s.packReply(st, s.partialLoss, s.grad, s.processed)
	}
	if err := s.vp.Send(s.master, TagADM, st); err != nil {
		return err
	}
	// Receive the plan.
	var moves []adm.Move
	var expectIncoming int
	for {
		_, _, r, err := s.vp.Recv(s.master, TagADM)
		if err != nil {
			return err
		}
		if r.UpkString() != "plan" {
			continue
		}
		if moves, expectIncoming, err = s.unpackPlan(r); err != nil {
			return fmt.Errorf("opt: ADM plan: %w", err)
		}
		break
	}
	// Execute my outgoing moves: fragment and ship, each exemplar's global
	// id and processed flag beside its data, so receivers do not reprocess.
	// Shipping cuts the shard's tail; keep the iteration cursor inside the
	// shard.
	for _, m := range moves {
		if m.From != s.rank {
			continue
		}
		frag := s.shard.TakeFragment(m.Count)
		bytes := m.Count * ExemplarBytes(p.InputDim)
		buf := core.NewBuffer().PkString("frag").PkInt(m.Count).PkVirtual(bytes)
		ids := make([]float64, frag.Len())
		flags := make([]byte, frag.Len())
		frag.Export(ids, flags)
		buf.PkFloat64s(ids).PkBytes(flags)
		if p.Real {
			s.local.TakeTail(frag.Len()).pack(buf)
		}
		if err := s.vp.Send(s.peers[m.To], TagADM, buf); err != nil {
			return err
		}
	}
	if s.cursor > s.shard.Len() {
		s.cursor = s.shard.Len()
	}
	// Absorb incoming fragments. A fragment whose lengths disagree, or whose
	// ids are not exemplars of the job this slave may take — out of range,
	// or already held — is malformed: absorbed, it would lose or duplicate
	// work.
	received := 0
	for received < expectIncoming {
		_, _, r, err := s.vp.Recv(core.AnyTID, TagADM)
		if err != nil {
			return err
		}
		if r.UpkString() != "frag" {
			continue
		}
		cnt, bytes, ids, flags := r.UpkCount(), r.UpkVirtual(), r.UpkFloat64s(), r.UpkBytes()
		if err := r.Err(); err != nil {
			return fmt.Errorf("opt: ADM fragment: %w", err)
		}
		if len(ids) != cnt || len(flags) != cnt {
			return fmt.Errorf("opt: ADM fragment announces %d exemplars and carries %d ids and %d processed flags",
				cnt, len(ids), len(flags))
		}
		var set *ExemplarSet
		if p.Real {
			if set, err = unpackExemplars(r, p, cnt); err != nil {
				return err
			}
		}
		frag, err := adm.NewFragment(ids, flags)
		if err == nil {
			err = s.shard.Absorb(frag, p.NumExemplars())
		}
		if err != nil {
			return fmt.Errorf("opt: ADM fragment: %w", err)
		}
		if p.Real {
			for i, id := range ids {
				set.ids[i] = int(id)
			}
			if err := s.local.Absorb(set); err != nil {
				return err
			}
		}
		// Integration cost: merging the data and flag arrays.
		if err := s.vp.Compute(float64(bytes) * mergeFlopsPerByte); err != nil {
			return err
		}
		received += cnt
	}
	if err := s.vp.Send(s.master, TagADM, core.NewBuffer().PkString("redist-done")); err != nil {
		return err
	}
	// Await the master's all-clear; this bounds the ADM migration measure.
	for {
		_, _, r, err := s.vp.Recv(s.master, TagADM)
		if err != nil {
			return err
		}
		if r.UpkString() == "redist-complete" {
			break
		}
	}
	if s.withdrawing {
		s.fire("withdrawn")
		now := s.vp.Proc().Now()
		s.ap.Stats.Records = append(s.ap.Stats.Records, core.MigrationRecord{
			VP:           s.vp.Mytid(),
			NewTID:       s.vp.Mytid(),
			From:         int(s.vp.Host().ID()),
			To:           -1, // data fragmented across the other slaves
			Reason:       core.ReasonOwnerReclaim,
			Start:        sim.Time(s.withdrawAt),
			OffSource:    now,
			Reintegrated: now,
			StateBytes:   0,
		})
	}
	return nil
}

// unpackPlan reads a redistribution plan — the moves, then every peer's
// incoming count — and returns the moves and this slave's incoming count.
// Every field is read before the plan acts: a field missing, a move
// between ranks that are not peers or of a negative count, a negative
// incoming count, or moves out of this slave that its shard cannot fill (a
// receiver would wait for the difference forever) make it an error.
func (s *admSlave) unpackPlan(r *core.Reader) (moves []adm.Move, incoming int, err error) {
	peers := len(s.peers)
	out := 0
	for n := r.UpkCount(); len(moves) < n && r.Err() == nil; {
		m := adm.Move{From: r.UpkIndex(peers), To: r.UpkIndex(peers), Count: r.UpkCount()}
		if m.From == s.rank {
			// Checked per move: a sum of counts past the shard could
			// otherwise wrap back into range.
			if out += m.Count; out < 0 || out > s.shard.Len() {
				return nil, 0, fmt.Errorf("moves more exemplars out of rank %d than the %d it holds", s.rank, s.shard.Len())
			}
		}
		moves = append(moves, m)
	}
	for i := range peers {
		if inc := r.UpkCount(); i == s.rank {
			incoming = inc
		}
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	return moves, incoming, nil
}

// waitDone parks an inactive (withdrawn) slave until the master finishes.
func (s *admSlave) waitDone() error {
	for {
		_, tag, _, err := s.vp.Recv(core.AnyTID, core.AnyTag)
		if err != nil {
			return err
		}
		if tag == TagDone {
			s.fire("done")
			return nil
		}
	}
}

// fire takes an FSM transition, panicking on an undeclared one: a wrong
// transition is a protocol bug, the exact class of error the paper warns
// requires "great care" to avoid.
func (s *admSlave) fire(event string) {
	if _, err := s.fsm.Fire(event); err != nil {
		panic(err)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
