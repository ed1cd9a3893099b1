// Fixture: discarded errors on the protocol paths named in the default
// config — netsim connection sends/dials and checkpoint store I/O.
package flagged

import (
	"pvmigrate/internal/checkpoint"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

func bareSend(p *sim.Proc, c *netsim.Conn) {
	c.Send(p, 64, nil) // want `error from pvmigrate/internal/netsim\.Send dropped on a protocol path`
}

func blankSend(p *sim.Proc, c *netsim.Conn) {
	_ = c.Send(p, 64, nil) // want `error from pvmigrate/internal/netsim\.Send discarded without justification`
}

func blankDial(p *sim.Proc, i *netsim.Iface) *netsim.Conn {
	conn, _ := i.Dial(p, 1, 9000) // want `error from pvmigrate/internal/netsim\.Dial discarded without justification`
	return conn
}

func bareWrite(p *sim.Proc, st *checkpoint.Store) {
	st.Write(p.Sleep, "vp1", 1, 1024, nil) // want `error from pvmigrate/internal/checkpoint\.Write dropped on a protocol path`
}

func staleJustification(p *sim.Proc, c *netsim.Conn) error {
	// lint:reason fixture: justifies nothing, the error below is propagated // want `stale lint:reason directive`
	return c.Send(p, 64, nil)
}
