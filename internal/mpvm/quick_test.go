package mpvm

import (
	"testing"
	"testing/quick"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/sim"
)

// Property: for ANY schedule of valid migrations of a single chatty worker
// across 3 hosts, the message stream it serves is delivered completely and
// in order, and every accepted migration completes with sane measurements.
func TestPropArbitraryMigrationSchedules(t *testing.T) {
	f := func(delays []uint8, dests []uint8) bool {
		if len(delays) > 6 {
			delays = delays[:6]
		}
		k, s := testSystem(t, 3)
		const n = 15
		var got []int
		victim, _ := s.SpawnMigratable(0, "victim", 1<<20, func(mt *MTask) {
			for i := 0; i < n; i++ {
				_, _, r, err := mt.Recv(core.AnyTID, core.AnyTag)
				if err != nil {
					return
				}
				v := r.UpkInt()
				got = append(got, v)
			}
		})
		s.SpawnMigratable(1, "sender", 1<<10, func(mt *MTask) {
			for i := 0; i < n; i++ {
				if mt.Send(victim.OrigTID(), 0, core.NewBuffer().PkInt(i).PkVirtual(15_000)) != nil {
					return
				}
				mt.Proc().Sleep(400 * time.Millisecond)
			}
		})
		at := sim.Time(0)
		for i, d := range delays {
			at += sim.Time(d%40+5) * 200 * time.Millisecond
			dest := 0
			if i < len(dests) {
				dest = int(dests[i]) % 3
			}
			k.ScheduleAt(at, func() {
				mt := s.Task(victim.OrigTID())
				if mt != nil && !mt.Migrating() && !mt.Exited() && int(mt.Host().ID()) != dest {
					s.Migrate(victim.OrigTID(), dest, core.ReasonRebalance)
				}
			})
		}
		k.RunUntil(30 * time.Minute)
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		for h := 0; h < 3; h++ {
			if len(s.Machine().Daemon(h).HeldMessages()) != 0 {
				return false
			}
		}
		if len(s.migrations) != 0 {
			return false
		}
		for _, r := range s.Records() {
			if r.Obtrusiveness() <= 0 || r.Cost() < r.Obtrusiveness() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
