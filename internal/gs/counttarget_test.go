package gs

import (
	"testing"

	"pvmigrate/internal/cluster"
	"pvmigrate/internal/core"
)

func countTarget(loads ...int) (*cluster.Cluster, *CountTarget) {
	_, cl := plainWorld(len(loads))
	tgt := NewCountTarget(cl)
	for h, n := range loads {
		tgt.Seed(h, n)
	}
	return cl, tgt
}

// TestCountTargetEvacuateSpreads pins an evacuation by value: the units fill
// the least-loaded owner-free hosts level by level, the lowest ids take the
// last, partial level, and a host with nowhere to go keeps its units and
// says how many.
func TestCountTargetEvacuateSpreads(t *testing.T) {
	cl, tgt := countTarget(9, 0, 3, 0, 1, 2)
	cl.Hosts()[3].SetOwnerActive(true)
	// Levels: host 1 at 0, host 4 at 1, host 5 at 2, host 2 at 3; host 3 is
	// out. 9 units: 1→3 (3), 4→3 (2), 5→3 (1), then one level of four hosts
	// with 3 units left: hosts 1, 2, 4 by id.
	moved, err := tgt.EvacuateHost(0, core.ReasonOwnerReclaim)
	if moved != 9 || err != nil {
		t.Fatalf("evacuate = (%d, %v), want (9, nil)", moved, err)
	}
	for h, want := range []int{0, 4, 4, 0, 4, 3} {
		if got := tgt.HostLoad(h); got != want {
			t.Errorf("host %d load %d, want %d", h, got, want)
		}
	}

	for _, h := range cl.Hosts()[1:] {
		h.SetOwnerActive(true)
	}
	tgt.Seed(0, 7)
	moved, err = tgt.EvacuateHost(0, core.ReasonOwnerReclaim)
	if moved != 0 || err == nil || tgt.HostLoad(0) != 7 ||
		err.Error() != "gs.no-destination: no destination for 7 stranded units [from=0 reason=owner-reclaim]" {
		t.Fatalf("evacuate with every owner home = (%d, %v), load %d", moved, err, tgt.HostLoad(0))
	}
	if _, err = tgt.EvacuateHost(3, core.ReasonOwnerReclaim); err == nil ||
		err.Error() != "gs.no-movable: no work unit on host 3 [reason=owner-reclaim]" {
		t.Fatalf("evacuate of an empty host: %v", err)
	}
}

// TestCountTargetEvacuateZeroAlloc: on a warm index an evacuation — the
// water-fill, the sort of its last level, and the marks it makes in a
// subscribed fleet's dirty lists — allocates nothing, whatever the host's
// load. Each run beats the fleet first, so the marks queue afresh.
func TestCountTargetEvacuateZeroAlloc(t *testing.T) {
	loads := make([]int, 64)
	for h := range loads {
		loads[h] = 90 + (h*37)%23
	}
	loads[5] = 400
	cl, tgt := countTarget(loads...)
	pol := DefaultFleetPolicy()
	pol.Shards = 4
	f := NewFleet(cl, tgt, pol)
	evacuateAndReseed := func() {
		for _, s := range f.shards {
			f.beatShard(s)
		}
		if moved, err := tgt.EvacuateHost(5, core.ReasonOwnerReclaim); moved != 400 || err != nil {
			t.Fatalf("evacuate = (%d, %v), want (400, nil)", moved, err)
		}
		queued, touched := 0, 0
		for _, s := range f.shards {
			queued += len(s.dirty)
		}
		for h, n := range loads {
			if tgt.HostLoad(h) != n {
				touched++
			}
		}
		if queued != touched || touched < 2 {
			t.Fatalf("the evacuation touched %d hosts and queued %d slots in the fleet", touched, queued)
		}
		for h, n := range loads {
			tgt.Index().Set(h, n)
		}
	}
	if allocs := testing.AllocsPerRun(20, evacuateAndReseed); allocs != 0 {
		t.Fatalf("evacuation allocated %.0f times, want 0", allocs)
	}
}
