package opt

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"pvmigrate/internal/adm"
	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// TestMalformedMessagesAreErrors: a peer that sends a structurally valid
// message with inconsistent contents — a shard whose counts disagree, a
// label that is no class, a state report cut short, without its withdraw
// flag or with a negative count, a gradient of the wrong shape, a fragment
// with fewer flags than ids, or with ids the receiver may not take, a plan
// cut short, or with a move of a negative count, to a rank that is no
// peer, or out of a shard too small to fill it (counts whose sum wraps
// around included), or a shard whose ids run past the largest int — gets
// an "opt:" error out of the driver that received it, never an index or
// slice-bounds panic, and never silently absorbed. The payloads are packed
// by hand, so the test also pins the layouts the drivers exchange.
func TestMalformedMessagesAreErrors(t *testing.T) {
	const (
		master = core.TID(1<<18 | 1)
		slave  = core.TID(1<<18 | 2)
	)
	// A 2→2→2 net has 12 parameters; 48 bytes of training data are four
	// exemplars.
	real := Params{Real: true, InputDim: 2, Hidden: 2, Classes: 2, TotalBytes: 48, Iterations: 1}
	flat := make([]float64, 12)
	// A shard is appended to what its driver puts in front: nothing, or for
	// ADM the id of its first exemplar.
	shard := func(buf *core.Buffer, count int, feats, labels []float64) *core.Buffer {
		return buf.PkInt(count).PkVirtual(count * 12).PkFloat64s(feats).PkFloat64s(labels)
	}
	net := core.NewBuffer().PkInt(0).PkVirtual(48).PkFloat64s(flat)
	grad := func(w1 []float64) *core.Buffer {
		return core.NewBuffer().PkFloat64s([]float64{1}).PkInt(4).
			PkFloat64s(w1).PkFloat64s(make([]float64, 2)).PkFloat64s(make([]float64, 4)).PkFloat64s(make([]float64, 2))
	}
	adm0 := func(op string) *core.Buffer { return core.NewBuffer().PkString(op) }
	// A cost-model ADM slave holding exemplars 2 and 3 enters a
	// redistribution that brings it one fragment: count exemplars announced,
	// ids carried, each flagged processed.
	fragTo := func(count int, ids []float64) []scripted {
		return []scripted{
			{master, TagShard, core.NewBuffer().PkInt(2).PkInt(2).PkVirtual(24)},
			{master, TagADM, adm0("enter-redist")},
			{master, TagADM, adm0("plan").PkInt(0).PkInt(1)},
			{slave, TagADM, adm0("frag").PkInt(count).PkVirtual(count * 12).
				PkFloat64s(ids).PkBytes(bytes.Repeat([]byte{1}, len(ids)))}}
	}
	// The same slave handed a plan: its moves (from, to, count) and each
	// peer's incoming count.
	planFor := func(plan *core.Buffer) []scripted {
		return []scripted{
			{master, TagShard, core.NewBuffer().PkInt(2).PkInt(2).PkVirtual(24)},
			{master, TagADM, adm0("enter-redist")},
			{master, TagADM, plan}}
	}

	runSlave := func(p Params) func(*quietVP) error {
		return func(vp *quietVP) error { return RunSlave(vp, master, p) }
	}
	runMaster := func(p Params) func(*quietVP) error {
		return func(vp *quietVP) error { _, err := RunMaster(vp, []core.TID{slave}, p); return err }
	}
	runADMSlave := func(p Params) func(*quietVP) error {
		return func(vp *quietVP) error {
			return RunADMSlave(vp, master, 0, []core.TID{slave}, &adm.EventQueue{}, ADMParams{Params: p})
		}
	}
	runADMMaster := func(vp *quietVP) error {
		_, err := RunADMMaster(vp, []core.TID{slave}, ADMParams{})
		return err
	}

	cases := []struct {
		name  string
		run   func(*quietVP) error
		inbox []scripted
	}{
		{"RunSlave: shard announces 2 exemplars, carries 1 feature value", runSlave(real), []scripted{
			{master, TagShard, shard(core.NewBuffer(), 2, []float64{1}, []float64{0, 1})},
			{master, TagNet, net}}},
		{"RunSlave: label is no class", runSlave(real), []scripted{
			{master, TagShard, shard(core.NewBuffer(), 1, []float64{1, 2}, []float64{5})},
			{master, TagNet, net}}},
		{"RunADMSlave: shard announces 2 exemplars, carries 1 feature value", runADMSlave(real), []scripted{
			{master, TagShard, shard(core.NewBuffer().PkInt(2), 2, []float64{1}, []float64{0, 1})},
			{master, TagNet, net}}},
		{"RunMaster: gradient of the wrong shape", runMaster(real), []scripted{
			{slave, TagGrad, grad([]float64{1})}}},
		{"RunADMMaster: state report cut short", runADMMaster, []scripted{
			{slave, TagADM, adm0("redist-request").PkInt(1)},
			{slave, TagADM, adm0("state").PkInt(0).PkInt(3)}}},
		{"RunADMMaster: state report with no withdraw flag", runADMMaster, []scripted{
			{slave, TagADM, adm0("redist-request").PkInt(1)},
			{slave, TagADM, adm0("state").PkInt(0).PkInt(3).PkFloat64s([]float64{1})}}},
		{"RunADMMaster: state report with a negative count", runADMMaster, []scripted{
			{slave, TagADM, adm0("redist-request").PkInt(1)},
			{slave, TagADM, adm0("state").PkInt(0).PkInt(-3).PkFloat64s([]float64{1}).PkInt(0)}}},
		{"RunADMSlave: fragment with fewer flags than ids", runADMSlave(Params{}), []scripted{
			{master, TagShard, core.NewBuffer().PkInt(2).PkInt(2).PkVirtual(24)},
			{master, TagADM, adm0("enter-redist")},
			{master, TagADM, adm0("plan").PkInt(0).PkInt(1)},
			{slave, TagADM, adm0("frag").PkInt(1).PkVirtual(12).PkFloat64s([]float64{9}).PkBytes(nil)}}},
		{"RunADMSlave: fragment with a negative id", runADMSlave(Params{}), fragTo(1, []float64{-1})},
		{"RunADMSlave: fragment with an id past the job's exemplars", runADMSlave(Params{}),
			fragTo(1, []float64{float64(Params{}.NumExemplars())})},
		{"RunADMSlave: fragment with an id the slave holds", runADMSlave(Params{}), fragTo(1, []float64{3})},
		{"RunADMSlave: fragment announces 2 exemplars, carries 1", runADMSlave(Params{}), fragTo(2, []float64{9})},
		{"RunADMSlave: fragment with a fractional id", runADMSlave(Params{}), fragTo(1, []float64{9.5})},
		{"RunADMSlave: plan cut short", runADMSlave(Params{}), planFor(adm0("plan").PkInt(1).PkInt(0))},
		{"RunADMSlave: plan moves a negative count", runADMSlave(Params{}),
			planFor(adm0("plan").PkInt(1).PkInt(0).PkInt(0).PkInt(-3).PkInt(0))},
		{"RunADMSlave: plan moves more than the shard holds", runADMSlave(Params{}),
			planFor(adm0("plan").PkInt(1).PkInt(0).PkInt(0).PkInt(5).PkInt(5))},
		{"RunADMSlave: plan moves counts whose sum wraps around", runADMSlave(Params{}),
			planFor(adm0("plan").PkInt(2).PkInt(0).PkInt(0).PkInt(1).PkInt(0).PkInt(0).PkInt(math.MaxInt).PkInt(0))},
		{"RunADMSlave: shard whose last id wraps around", runADMSlave(Params{}), []scripted{
			{master, TagShard, core.NewBuffer().PkInt(math.MaxInt).PkInt(2).PkVirtual(24)}}},
		{"RunADMSlave: plan moves to a rank that is no peer", runADMSlave(Params{}),
			planFor(adm0("plan").PkInt(1).PkInt(0).PkInt(7).PkInt(1).PkInt(0))},
	}
	host := cluster.New(sim.NewKernel(), netsim.Params{}, cluster.DefaultHostSpec("h0")).Hosts()[0]
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			err := c.run(&quietVP{inbox: c.inbox, host: host})
			if err == nil || errors.Is(err, errScriptEnd) || !strings.HasPrefix(err.Error(), "opt:") {
				t.Fatalf("error %v, want an opt: error naming the malformed message", err)
			}
		})
	}
}
