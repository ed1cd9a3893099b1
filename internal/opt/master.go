package opt

import (
	"errors"

	"pvmigrate/internal/core"
)

// Master is the Opt master's training state and the steps one iteration
// takes with it: pack slave i's shard, pack the net broadcast, absorb one
// gradient reply, update. The drivers — RunMaster, RunADMMaster and ft.Job —
// own only their protocol around these steps (who is sent what, in which
// order replies are awaited, what is stamped in front of a payload), so the
// update math and the payload layouts exist once and every system trains
// the same network bit for bit.
type Master struct {
	p      Params
	cost   CostModel
	nEx    int
	counts []int // exemplars per slave, in shard order

	// Real mode only: the data, the weights, the CG memory, and the
	// reduction accumulator — allocated once and zeroed per iteration, so the
	// shard-ordered sum starts from the same +0 a fresh one would.
	set     *ExemplarSet
	net     *Net
	trainer *CGTrainer
	total   *Gradient
	lossSum float64

	iter     int // completed iterations
	step     float64
	prevLoss float64
	losses   []float64
}

// NewMaster builds the master for nSlaves slaves; in Real mode it generates
// the training set and the initial weights from p.Seed.
func NewMaster(p Params, nSlaves int) (*Master, error) {
	if nSlaves < 1 {
		return nil, errors.New("opt: master needs at least one slave")
	}
	p = p.withDefaults()
	m := &Master{p: p, cost: p.Cost(), nEx: p.NumExemplars(), step: initialStep}
	m.counts = evenCounts(m.nEx, nSlaves)
	if p.Real {
		m.set = GenerateExemplars(m.nEx, p.InputDim, p.Classes, p.Seed)
		m.net = NewNet(p.InputDim, p.Hidden, p.Classes, p.Seed+1)
		m.trainer = NewCGTrainer(m.net)
		m.total = NewGradient(m.net)
	}
	return m, nil
}

// Iter returns the number of completed iterations.
func (m *Master) Iter() int { return m.iter }

// Done reports whether the predetermined iteration count has been reached.
func (m *Master) Done() bool { return m.iter >= m.p.Iterations }

// ShardBytes returns the size of slave i's exemplar shard.
func (m *Master) ShardBytes(i int) int { return m.counts[i] * ExemplarBytes(m.p.InputDim) }

// shardLo returns the global id of slave i's first exemplar ("data is
// equally distributed among the slaves", contiguously and in slave order).
func (m *Master) shardLo(i int) int {
	lo := 0
	for _, n := range m.counts[:i] {
		lo += n
	}
	return lo
}

// PackShard appends slave i's shard to buf: the exemplar count, the shard's
// size as virtual bytes and, in Real mode, the exemplars themselves.
func (m *Master) PackShard(buf *core.Buffer, i int) *core.Buffer {
	buf.PkInt(m.counts[i]).PkVirtual(m.ShardBytes(i))
	if m.p.Real {
		lo := m.shardLo(i)
		m.set.Slice(lo, lo+m.counts[i]).pack(buf)
	}
	return buf
}

// PackNet appends the net broadcast that starts an iteration — iteration
// number, the net's size, in Real mode the weights — and opens a fresh
// reduction for the replies it solicits.
func (m *Master) PackNet(buf *core.Buffer) *core.Buffer {
	buf.PkInt(m.iter).PkVirtual(m.cost.NetBytes())
	if m.p.Real {
		buf.PkFloat64s(m.net.Flat())
		m.total.zero()
	}
	m.lossSum = 0
	return buf
}

// Absorb adds one gradient reply to the open reduction. Callers absorb in a
// fixed slave order where they can: the sum is floating-point.
func (m *Master) Absorb(r *core.Reader) error {
	loss, g, err := unpackGradient(r, m.total)
	if err != nil {
		return err
	}
	m.lossSum += loss
	if g != nil {
		m.total.Add(g)
	}
	return nil
}

// Update closes the iteration: charge the combine-and-update work to vp
// and, in Real mode, record the mean loss, take the CG direction and move
// the net along it by §4.0's two-step apply/modify rule (halve the step
// whenever the loss rose).
func (m *Master) Update(vp core.VP) error {
	if err := vp.Compute(m.cost.UpdateFlops(len(m.counts))); err != nil {
		return err
	}
	if m.p.Real {
		meanLoss := m.lossSum / float64(m.nEx)
		m.losses = append(m.losses, meanLoss)
		dir := m.trainer.Direction(m.total.Flat())
		if m.iter > 0 && meanLoss > m.prevLoss {
			m.step *= 0.5
		}
		m.prevLoss = meanLoss
		flat := m.net.Flat()
		for i := range flat {
			flat[i] += m.step * dir[i]
		}
		if err := m.net.SetFlat(flat); err != nil {
			return err
		}
	}
	m.iter++
	return nil
}

// Result summarizes the run so far.
func (m *Master) Result() *Result {
	res := &Result{Iterations: m.iter, Losses: m.losses}
	if len(m.losses) > 0 {
		res.FinalLoss = m.losses[len(m.losses)-1]
	}
	return res
}

// MasterSnapshot is a deep copy of everything a master needs to replay
// training bit for bit from the iteration it was taken at — ft's
// stable-storage image of the master.
type MasterSnapshot struct {
	iter     int
	step     float64
	prevLoss float64
	losses   []float64
	flat     []float64 // nil in cost-model mode
	trainer  TrainerState
}

// Snapshot captures the master's training state.
func (m *Master) Snapshot() *MasterSnapshot {
	s := &MasterSnapshot{iter: m.iter, step: m.step, prevLoss: m.prevLoss,
		losses: append([]float64(nil), m.losses...)}
	if m.p.Real {
		s.flat = m.net.Flat()
		s.trainer = m.trainer.Snapshot()
	}
	return s
}

// Restore rewinds the master to a snapshot; the snapshot stays reusable.
func (m *Master) Restore(s *MasterSnapshot) error {
	m.iter, m.step, m.prevLoss = s.iter, s.step, s.prevLoss
	m.losses = append([]float64(nil), s.losses...)
	if m.p.Real {
		if err := m.net.SetFlat(s.flat); err != nil {
			return err
		}
		m.trainer.Restore(s.trainer)
	}
	return nil
}
