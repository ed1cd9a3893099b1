package opt

import (
	"errors"
	"fmt"

	"pvmigrate/internal/core"
)

// Slave is the Opt slave's state and the steps every system's slave takes
// with it: load the shard, load a net broadcast, compute the gradient and
// pack the reply. RunSlave and ft.Job drive it as is; the ADM slave embeds
// it and replaces the whole-shard gradient with its chunked inner loop.
type Slave struct {
	p     Params
	cost  CostModel
	count int          // exemplars in the shard as loaded
	local *ExemplarSet // the shard's data; nil in cost-model mode
	net   *Net         // weights allocated by the first Real-mode LoadNet
}

// NewSlave returns a slave with no shard yet.
func NewSlave(p Params) *Slave {
	p = p.withDefaults()
	return &Slave{p: p, cost: p.Cost(),
		net: &Net{InputDim: p.InputDim, Hidden: p.Hidden, Classes: p.Classes}}
}

// Restart returns a new slave over the same shard, as a re-incarnation
// restored from a checkpointed image is (ft): the shard never changes once
// loaded and the weights arrive with every net broadcast, so nothing else
// carries over — in particular not the net, which a not-yet-reaped previous
// incarnation may still be writing.
func (s *Slave) Restart() *Slave {
	fresh := NewSlave(s.p)
	fresh.count, fresh.local = s.count, s.local
	return fresh
}

// LoadShard reads a shard in Master.PackShard's layout, validates it (see
// unpackExemplars) and reports the slave's resident state size to
// Params.OnStateBytes.
func (s *Slave) LoadShard(r *core.Reader) error {
	count, bytes := r.UpkCount(), r.UpkVirtual()
	if err := r.Err(); err != nil {
		return fmt.Errorf("opt: shard: %w", err)
	}
	if s.p.Real {
		local, err := unpackExemplars(r, s.p, count)
		if err != nil {
			return err
		}
		s.local = local
	}
	s.count = count
	if s.p.OnStateBytes != nil {
		s.p.OnStateBytes(bytes + s.cost.NetBytes())
	}
	return nil
}

// LoadNet reads a net broadcast in Master.PackNet's layout, installs the
// weights in Real mode, and returns the iteration number it carries.
func (s *Slave) LoadNet(r *core.Reader) (iter int, err error) {
	iter = r.UpkInt()
	r.UpkVirtual() // the net's size on the wire
	var flat []float64
	if s.p.Real {
		flat = r.UpkFloat64s()
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("opt: net broadcast: %w", err)
	}
	if s.p.Real {
		if s.net.W1 == nil {
			s.net.W1 = make([]float64, s.p.Hidden*s.p.InputDim)
			s.net.B1 = make([]float64, s.p.Hidden)
			s.net.W2 = make([]float64, s.p.Classes*s.p.Hidden)
			s.net.B2 = make([]float64, s.p.Classes)
		}
		if err := s.net.SetFlat(flat); err != nil {
			return 0, err
		}
	}
	return iter, nil
}

// PackGradient applies the loaded net to the whole shard — the dominant
// cost, charged to vp; with Real data the back-propagation runs too — and
// appends the reply to buf.
func (s *Slave) PackGradient(vp core.VP, buf *core.Buffer) error {
	if err := vp.Compute(s.cost.GradientFlops(s.count)); err != nil {
		return err
	}
	var g *Gradient
	var partialLoss float64
	if s.p.Real {
		g = NewGradient(s.net)
		s.net.AccumulateGradient(s.local, 0, s.local.Len(), g)
		partialLoss = s.net.Loss(s.local) * float64(s.local.Len())
	}
	s.packReply(buf, partialLoss, g, s.count)
	return nil
}

// packReply appends a gradient reply: the partial loss (a sum over the
// exemplars, not a mean), how many exemplars the gradient covers, and the
// gradient. In cost-model mode g is nil and the reply is its size only,
// announcing count exemplars.
func (s *Slave) packReply(buf *core.Buffer, partialLoss float64, g *Gradient, count int) {
	if g == nil {
		buf.PkFloat64s([]float64{0}).PkInt(count).PkVirtual(s.cost.NetBytes())
		return
	}
	buf.PkFloat64s([]float64{partialLoss}).PkInt(g.Count)
	buf.PkFloat64s(g.W1).PkFloat64s(g.B1).PkFloat64s(g.W2).PkFloat64s(g.B2)
}

// unpackGradient reads a gradient reply in packReply's layout: the one
// decoder behind every master's receive path. like is the accumulator the
// gradient will be added to, nil in cost-model mode; a reply that carries no
// partial loss, or a gradient of any other shape, is a malformed payload and
// comes back as an error, never as an index panic here or in Gradient.Add.
func unpackGradient(r *core.Reader, like *Gradient) (partialLoss float64, g *Gradient, err error) {
	pl, count := r.UpkFloat64s(), r.UpkInt()
	if like == nil {
		r.UpkVirtual() // a cost-model reply is its size only
	} else {
		g = &Gradient{Count: count, W1: r.UpkFloat64s(), B1: r.UpkFloat64s(), W2: r.UpkFloat64s(), B2: r.UpkFloat64s()}
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("opt: gradient reply: %w", err)
	}
	if len(pl) == 0 {
		return 0, nil, errors.New("opt: gradient reply carries no partial loss")
	}
	if g != nil {
		for _, b := range [][2][]float64{{g.W1, like.W1}, {g.B1, like.B1}, {g.W2, like.W2}, {g.B2, like.B2}} {
			if len(b[0]) != len(b[1]) {
				return 0, nil, fmt.Errorf("opt: gradient reply carries a %d-value block where the net has %d", len(b[0]), len(b[1]))
			}
		}
	}
	return pl[0], g, nil
}
