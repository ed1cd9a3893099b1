package mpvm

import (
	"slices"
	"testing"
	"time"

	"pvmigrate/internal/core"
	"pvmigrate/internal/pvm"
)

// TestPlacementHookTracksCurrentIncarnation pins the OnPlacement contract
// the scheduler's load index relies on: a subscriber hears the destination
// when a migration reintegrates, the new host after Respawn, and -1 when
// the current incarnation exits — normally or killed by CrashHost — but
// nothing when a replaced (stale) incarnation exits. Every report agrees
// with Placement at the instant it is made.
func TestPlacementHookTracksCurrentIncarnation(t *testing.T) {
	k, s := testSystem(t, 3)
	speed := s.Machine().Cluster().Host(0).Spec().Speed
	seen := map[core.TID][]int{}
	s.OnPlacement(func(orig core.TID, host int) {
		seen[orig] = append(seen[orig], host)
		h, live, _ := s.Placement(orig)
		if host >= 0 && (!live || h != host) {
			t.Errorf("%v reported on host%d, Placement says host%d live=%v", orig, host, h, live)
		}
		if host < 0 && live {
			t.Errorf("%v reported exited, Placement says live on host%d", orig, h)
		}
	})
	spawn := func(host int, secs float64) core.TID {
		mt, err := s.SpawnMigratable(host, "w", 1<<20, func(mt *MTask) { _ = mt.Compute(speed * secs) })
		if err != nil {
			t.Fatal(err)
		}
		return mt.OrigTID()
	}
	respawn := func(orig core.TID, host int, secs float64) {
		if _, err := s.Respawn(orig, host, "w", 1<<20, func(mt *MTask) { _ = mt.Compute(speed * secs) }); err != nil {
			t.Errorf("respawn %v: %v", orig, err)
		}
	}

	// migrated: moves host0 → host1, then finishes there.
	migrated := spawn(0, 10)
	k.Schedule(3*time.Second, func() {
		if err := s.Migrate(migrated, 1, core.ReasonManual); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	// crashed: killed with host2, respawned on host0, finishes there.
	crashed := spawn(2, 300)
	k.Schedule(5*time.Second, func() { _ = s.Machine().CrashHost(2) })
	k.Schedule(10*time.Second, func() { respawn(crashed, 0, 5) })
	// fenced: orphaned while running on host1 and replaced on host0; the
	// orphan then finishes on its own while the replacement still runs.
	fenced := spawn(1, 20)
	orphan := s.Task(fenced)
	staleExitSeen := false
	orphan.Task.OnExit(func(*pvm.Task) {
		cur := s.Task(fenced)
		staleExitSeen = cur != orphan && !cur.Exited()
	})
	k.Schedule(8*time.Second, func() {
		if !s.OrphanTask(fenced) {
			t.Errorf("OrphanTask(%v) found no live incarnation", fenced)
		}
		respawn(fenced, 0, 100)
	})
	k.Run()

	if !staleExitSeen {
		t.Fatal("the orphan did not exit while its replacement ran; scenario does not exercise a stale exit")
	}
	for _, c := range []struct {
		name string
		orig core.TID
		want []int
	}{
		{"migrated", migrated, []int{1, -1}},
		{"crashed", crashed, []int{-1, 0, -1}},
		{"fenced", fenced, []int{0, -1}},
	} {
		if got := seen[c.orig]; !slices.Equal(got, c.want) {
			t.Errorf("%s %v: placements %v, want %v", c.name, c.orig, got, c.want)
		}
	}
}
