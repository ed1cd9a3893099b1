package ft

import (
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// BeatPort is the well-known UDP port for daemon heartbeats.
const BeatPort = 97

// beatBytes is the wire size of one heartbeat datagram.
const beatBytes = 32

type beat struct{ host int }

// Detector is the GS-side heartbeat table: last beat arrival per host. It
// implements gs.HeartbeatSource, so the scheduler's watch loop can turn
// silence into host-dead declarations.
type Detector struct {
	last map[int]sim.Time
}

// LastHeard implements gs.HeartbeatSource.
func (d *Detector) LastHeard(host int) (sim.Time, bool) {
	t, ok := d.last[host]
	return t, ok
}

// StartHeartbeats starts one beat sender per host and the receiving
// Detector on gsHost, all kernel callbacks (they model daemon-internal
// threads and survive nothing: a crashed host's sender just stops sending,
// because it checks Host.Alive before each beat).
//
// The table starts primed with the current time for every host, so a host
// is only suspected after a real silence, not at t=0.
func StartHeartbeats(cl *cluster.Cluster, gsHost int, interval sim.Time) *Detector {
	k := cl.Kernel()
	det := &Detector{last: make(map[int]sim.Time)}
	for _, h := range cl.Hosts() {
		det.last[int(h.ID())] = k.Now()
	}
	q, _ := cl.Host(netsim.HostID(gsHost)).Iface().BindDgram(BeatPort)
	q.Serve(func(dg netsim.Datagram) {
		if b, ok := dg.Payload.(beat); ok {
			det.last[b.host] = k.Now()
		}
	})
	for _, h := range cl.Hosts() {
		host := h
		var send func()
		send = func() {
			if host.Alive() { // a crashed host falls silent
				host.Iface().SendDgram(BeatPort, netsim.HostID(gsHost), BeatPort,
					beatBytes, beat{host: int(host.ID())})
			}
			k.Schedule(interval, send)
		}
		k.Schedule(0, func() { k.Schedule(interval, send) })
	}
	return det
}
