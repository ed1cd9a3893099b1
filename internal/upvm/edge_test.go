package upvm

import (
	"testing"
	"testing/quick"
	"time"

	"pvmigrate/internal/core"
)

func TestULPTIDRoundTrip(t *testing.T) {
	f := func(id uint16) bool {
		tid := ULPTID(int(id))
		got, ok := ULPFromTID(tid)
		return ok && got == int(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := ULPFromTID(core.MakeTID(0, 1)); ok {
		t.Fatal("task tid decoded as ULP")
	}
	if _, ok := ULPFromTID(core.NoTID); ok {
		t.Fatal("NoTID decoded as ULP")
	}
}

func TestULPNRecv(t *testing.T) {
	// Sender and receiver on different hosts: an NRecv poller keeps its
	// process's run token (non-preemptive scheduling), so a co-located
	// sender could never run.
	k, s := testSystem(t, 2)
	var before, after bool
	var got int
	s.Start("app", []ULPSpec{
		{Host: 0, DataBytes: 1000},
		{Host: 1, DataBytes: 1000},
	}, func(u *ULP, rank int) {
		if rank == 1 {
			u.Proc().Sleep(time.Second)
			u.Send(ULPTID(0), 4, core.NewBuffer().PkInt(11))
			return
		}
		_, _, _, ok, _ := u.NRecv(core.AnyTID, core.AnyTag)
		before = ok
		u.Proc().Sleep(3 * time.Second)
		_, _, r, ok, _ := u.NRecv(core.AnyTID, 4)
		after = ok
		if ok {
			got = r.UpkInt()
		}
	})
	k.Run()
	if before || !after || got != 11 {
		t.Fatalf("before=%v after=%v got=%d", before, after, got)
	}
}

func TestULPAccessors(t *testing.T) {
	k, s := testSystem(t, 2)
	ulps, err := s.Start("app", []ULPSpec{
		{Host: 1, DataBytes: 60_000, StackBytes: 5_000},
	}, func(u *ULP, rank int) {
		if u.id != 0 || u.Host().Name() != "host2" {
			t.Errorf("accessors: id=%d host=%s", u.id, u.Host().Name())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	u := ulps[0]
	if r := s.space.regions[0]; r.Size < 65_000 {
		t.Fatalf("region of %d bytes does not hold the two segments", r.Size)
	}
	if u.p != s.procs[1] {
		t.Fatal("ULP not in host 1's process")
	}
	if s.ulps[0] != u || s.ulps[9] != nil {
		t.Fatal("System ULP lookup wrong")
	}
	k.Run()
	if !u.Done() {
		t.Fatal("ULP not done after run")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	_, s := testSystem(t, 1)
	if _, err := s.Start("a", nil, func(u *ULP, rank int) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start("b", nil, func(u *ULP, rank int) {}); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestBadPlacementRejected(t *testing.T) {
	_, s := testSystem(t, 1)
	if _, err := s.Start("a", []ULPSpec{{Host: 7}}, func(u *ULP, rank int) {}); err == nil {
		t.Fatal("placement on missing host accepted")
	}
}

func TestSendToUnknownULP(t *testing.T) {
	k, s := testSystem(t, 1)
	var err1, err2 error
	s.Start("app", []ULPSpec{{Host: 0, DataBytes: 1000}}, func(u *ULP, rank int) {
		err1 = u.Send(ULPTID(42), 0, core.NewBuffer())
		err2 = u.Send(core.MakeTID(0, 1), 0, core.NewBuffer()) // not a ULP tid
	})
	k.Run()
	if err1 == nil || err2 == nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
}

func TestRegionStringAndOverlap(t *testing.T) {
	a := Region{Base: 0x1000, Size: 0x1000}
	b := Region{Base: 0x2000, Size: 0x1000}
	c := Region{Base: 0x1800, Size: 0x100}
	if a.Overlaps(b) || !a.Overlaps(c) {
		t.Fatal("overlap logic wrong")
	}
	if a.End() != 0x2000 {
		t.Fatalf("End = %#x", a.End())
	}
	if s := a.String(); s == "" {
		t.Fatal("empty region string")
	}
}
