package pvm

import (
	"fmt"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// Group operations (pvm_joingroup, pvm_barrier, pvm_bcast, pvm_gsize) are
// served by a group server hosted at the master pvmd (host 0), as in real
// PVM 3. Tasks talk to the server with small control datagrams; the
// round-trip costs are modelled on the wire.

const groupMasterHost = 0
const groupCtlBytes = 64

type groupReq struct {
	id    int
	op    string // "join", "barrier", "size", "members"
	group string
	tid   core.TID
	host  int // requester's host, for the reply route
	count int // barrier count
}

type groupReply struct {
	id      int
	inst    int
	size    int
	members []core.TID
	err     string
}

type groupPending struct {
	cond  *sim.Cond
	reply *groupReply
}

type groupState struct {
	members []core.TID
	inst    map[core.TID]int
	barrier []*groupReq // requests waiting at the current barrier
}

type groupServer struct {
	m       *Machine
	groups  map[string]*groupState
	nextID  int
	pending map[int]*groupPending
}

func newGroupServer(m *Machine) *groupServer {
	return &groupServer{m: m, groups: make(map[string]*groupState), pending: make(map[int]*groupPending)}
}

func (g *groupServer) state(name string) *groupState {
	s, ok := g.groups[name]
	if !ok {
		s = &groupState{inst: make(map[core.TID]int)}
		g.groups[name] = s
	}
	return s
}

// handle processes a group control message at a daemon. Requests are only
// handled at the master daemon; replies are handled at the requester's
// daemon.
func (g *groupServer) handle(d *Daemon, c *CtlMsg) {
	switch payload := c.Payload.(type) {
	case *groupReq:
		g.serve(d, payload)
	case *groupReply:
		if p, ok := g.pending[payload.id]; ok {
			delete(g.pending, payload.id)
			p.reply = payload
			p.cond.Broadcast()
		}
	}
}

func (g *groupServer) serve(d *Daemon, r *groupReq) {
	s := g.state(r.group)
	reply := &groupReply{id: r.id}
	switch r.op {
	case "join":
		if inst, ok := s.inst[r.tid]; ok {
			reply.inst = inst
		} else {
			reply.inst = len(s.members)
			s.inst[r.tid] = reply.inst
			s.members = append(s.members, r.tid)
		}
	case "size":
		reply.size = len(s.members)
	case "members":
		reply.members = append([]core.TID(nil), s.members...)
	case "barrier":
		s.barrier = append(s.barrier, r)
		if len(s.barrier) >= r.count {
			for _, waiting := range s.barrier {
				rep := &groupReply{id: waiting.id}
				d.SendCtl(waiting.host, groupCtlBytes, &CtlMsg{Kind: "group", Payload: rep})
			}
			s.barrier = nil
		}
		return // replies sent (or deferred) above
	default:
		reply.err = fmt.Sprintf("pvm: unknown group op %q", r.op)
	}
	d.SendCtl(r.host, groupCtlBytes, &CtlMsg{Kind: "group", Payload: reply})
}

// JoinGroup adds the task to a named dynamic group and returns its instance
// number (pvm_joingroup).
func (t *Task) JoinGroup(name string) (int, error) {
	rep, err := t.groupRPCToMaster(&groupReq{op: "join", group: name})
	if err != nil {
		return 0, err
	}
	return rep.inst, nil
}

// GroupSize returns the group's current membership count (pvm_gsize).
func (t *Task) GroupSize(name string) (int, error) {
	rep, err := t.groupRPCToMaster(&groupReq{op: "size", group: name})
	if err != nil {
		return 0, err
	}
	return rep.size, nil
}

// GroupMembers returns the group's member tids in instance order.
func (t *Task) GroupMembers(name string) ([]core.TID, error) {
	rep, err := t.groupRPCToMaster(&groupReq{op: "members", group: name})
	if err != nil {
		return nil, err
	}
	return rep.members, nil
}

// Barrier blocks until count group members have reached it (pvm_barrier).
func (t *Task) Barrier(name string, count int) error {
	_, err := t.groupRPCToMaster(&groupReq{op: "barrier", group: name, count: count})
	return err
}

// Bcast sends buf to every member of the group except the sender
// (pvm_bcast): implemented as member lookup plus unicasts, so the wire cost
// scales with group size.
func (t *Task) Bcast(name string, tag int, buf *core.Buffer) error {
	members, err := t.GroupMembers(name)
	if err != nil {
		return err
	}
	for _, m := range members {
		if m == t.tid {
			continue
		}
		if err := t.Send(m, tag, buf); err != nil {
			return err
		}
	}
	return nil
}

func (t *Task) groupRPCToMaster(req *groupReq) (*groupReply, error) {
	// Route the request to the master daemon (host 0).
	p := t.proc
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	t.m.chargeCPU(p, t.host, libCallOverhead)
	g := t.m.groups
	g.nextID++
	req.id = g.nextID
	req.tid = t.tid
	req.host = int(t.host.ID())
	pend := &groupPending{cond: sim.NewCond(t.m.k)}
	g.pending[req.id] = pend
	t.host.Iface().SendDgram(taskPortBase+t.tid.Local(), groupMasterHost, pvmdPort,
		groupCtlBytes, &CtlMsg{Kind: "group", Payload: req})
	for pend.reply == nil {
		if err := pend.cond.Wait(p); err != nil {
			return nil, err
		}
	}
	if pend.reply.err != "" {
		return nil, fmt.Errorf("%s", pend.reply.err)
	}
	return pend.reply, nil
}
