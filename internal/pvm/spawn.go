package pvm

import (
	"fmt"

	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// Runtime spawning (pvm_spawn): a task asks a pvmd to start a new task and
// blocks for the reply — one control round trip plus the usual spawn cost,
// which is how real PVM masters start their slaves.

type spawnReq struct {
	rpc       int
	name      string
	replyHost int
}

type spawnReply struct {
	rpc int
	tid core.TID
	err string
}

// spawnBodies holds the body function out of band (a real pvmd looks the
// executable up on disk; we look the closure up by rpc id).
type spawnPending struct {
	cond  *sim.Cond
	reply *spawnReply
	body  func(*Task)
}

// SpawnTask starts a new task running body on the given host, from inside a
// running task (pvm_spawn). It blocks for the daemon round trip and returns
// the new task's tid; the task body begins after the usual spawn cost.
func (t *Task) SpawnTask(host int, name string, body func(*Task)) (core.TID, error) {
	if t.exited {
		return core.NoTID, ErrTaskExited
	}
	d := t.m.Daemon(host)
	if d == nil {
		return core.NoTID, fmt.Errorf("pvm: no host %d", host)
	}
	p := t.proc
	p.MaskInterrupts()
	defer p.UnmaskInterrupts()
	t.m.chargeCPU(p, t.host, libCallOverhead)

	t.m.spawnSeq++
	id := t.m.spawnSeq
	pend := &spawnPending{cond: sim.NewCond(t.m.k), body: body}
	t.m.spawnWait[id] = pend
	req := &spawnReq{rpc: id, name: name, replyHost: int(t.host.ID())}
	t.host.Iface().SendDgram(taskPortBase+t.tid.Local(), netsim.HostID(host), pvmdPort,
		64, &CtlMsg{Kind: "spawn", From: t.tid, Payload: req})
	for pend.reply == nil {
		if err := pend.cond.Wait(p); err != nil {
			return core.NoTID, err
		}
	}
	delete(t.m.spawnWait, id)
	if pend.reply.err != "" {
		return core.NoTID, fmt.Errorf("pvm: spawn: %s", pend.reply.err)
	}
	return pend.reply.tid, nil
}

// handleSpawn serves spawn requests and routes replies at the daemons.
func (m *Machine) handleSpawn(d *Daemon, c *CtlMsg) bool {
	if c.Kind != "spawn" {
		return false
	}
	switch p := c.Payload.(type) {
	case *spawnReq:
		pend, ok := m.spawnWait[p.rpc]
		reply := &spawnReply{rpc: p.rpc}
		if !ok || pend.body == nil {
			reply.err = fmt.Sprintf("unknown spawn request %d", p.rpc)
		} else {
			task := d.spawnTask(p.name, pend.body)
			reply.tid = task.Mytid()
		}
		d.SendCtl(p.replyHost, 64, &CtlMsg{Kind: "spawn", Payload: reply})
	case *spawnReply:
		if pend, ok := m.spawnWait[p.rpc]; ok {
			pend.reply = p
			pend.cond.Broadcast()
		}
	}
	return true
}
