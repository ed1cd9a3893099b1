package core

import (
	"testing"
	"testing/quick"

	"pvmigrate/internal/errs"
)

// remaining is the number of items r has not yet unpacked.
func remaining(r *Reader) int { return len(r.buf.items) - r.pos }

func TestTIDEncoding(t *testing.T) {
	for _, c := range []struct{ host, local int }{
		{0, 1}, {0, 0}, {3, 7}, {15, 262143},
	} {
		tid := MakeTID(c.host, c.local)
		if tid.Host() != c.host || tid.Local() != c.local {
			t.Fatalf("MakeTID(%d,%d) round trip = (%d,%d)",
				c.host, c.local, tid.Host(), tid.Local())
		}
		if !tid.Valid() {
			t.Fatalf("tid %v not valid", tid)
		}
	}
}

func TestTIDDaemon(t *testing.T) {
	d := DaemonTID(2)
	if !d.IsDaemon() || d.Host() != 2 {
		t.Fatalf("DaemonTID(2) = %v", d)
	}
	if MakeTID(2, 5).IsDaemon() {
		t.Fatal("task tid claims to be daemon")
	}
	if NoTID.IsDaemon() || AnyTID.IsDaemon() {
		t.Fatal("sentinel tids claim to be daemons")
	}
}

func TestTIDStrings(t *testing.T) {
	cases := map[TID]string{
		NoTID:         "t-none",
		AnyTID:        "t-any",
		DaemonTID(1):  "pvmd1",
		MakeTID(1, 2): "t1/2",
	}
	for tid, want := range cases {
		if got := tid.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(tid), got, want)
		}
	}
}

func TestTIDPanicsOnBadParts(t *testing.T) {
	for _, c := range []struct{ host, local int }{
		{-1, 0}, {0, -1}, {0, 1 << 18},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeTID(%d,%d) did not panic", c.host, c.local)
				}
			}()
			MakeTID(c.host, c.local)
		}()
	}
}

func TestPropTIDRoundTrip(t *testing.T) {
	f := func(h uint8, l uint16) bool {
		tid := MakeTID(int(h), int(l))
		return tid.Host() == int(h) && tid.Local() == int(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTIDUnique(t *testing.T) {
	f := func(h1, h2 uint8, l1, l2 uint16) bool {
		t1, t2 := MakeTID(int(h1), int(l1)), MakeTID(int(h2), int(l2))
		same := h1 == h2 && l1 == l2
		return (t1 == t2) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPackUnpackIdentity(t *testing.T) {
	b := NewBuffer()
	b.PkInt(42).
		PkFloat64s([]float64{1.5, -2.25, 3}).
		PkBytes([]byte("abc")).
		PkString("hello").
		PkVirtual(1000)
	r := b.Reader()
	i, f, by, str, v := r.UpkInt(), r.UpkFloat64s(), r.UpkBytes(), r.UpkString(), r.UpkVirtual()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 42 || len(f) != 3 || f[1] != -2.25 || string(by) != "abc" || str != "hello" || v != 1000 {
		t.Fatalf("unpacked %d, %v, %q, %q, %d", i, f, by, str, v)
	}
	if remaining(r) != 0 {
		t.Fatalf("Remaining = %d", remaining(r))
	}
}

func TestBufferByteAccounting(t *testing.T) {
	b := NewBuffer()
	if b.Bytes() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	b.PkInt(1)                        // 4
	b.PkFloat64s(make([]float64, 10)) // 84
	b.PkBytes(make([]byte, 7))        // 11
	b.PkString("xy")                  // 6
	b.PkVirtual(100)                  // 100
	if b.Bytes() != 4+84+11+6+100 {
		t.Fatalf("Bytes = %d, want 205", b.Bytes())
	}
}

func TestBufferTypeMismatch(t *testing.T) {
	b := NewBuffer().PkInt(1).PkInt(2)
	r := b.Reader()
	if s := r.UpkString(); s != "" || !errs.Is(r.Err(), CodeTypeMismatch) {
		t.Fatalf("UpkString = %q, err = %v", s, r.Err())
	}
	// The failure sticks: the mismatching item is not consumed, and later
	// calls return zero values without advancing.
	if v := r.UpkInt(); v != 0 || remaining(r) != 2 || !errs.Is(r.Err(), CodeTypeMismatch) {
		t.Fatalf("after mismatch: %d, %d remaining, %v", v, remaining(r), r.Err())
	}
}

func TestBufferPastEnd(t *testing.T) {
	r := NewBuffer().Reader()
	if v := r.UpkInt(); v != 0 || !errs.Is(r.Err(), CodePastEnd) {
		t.Fatalf("UpkInt = %d, err = %v", v, r.Err())
	}
}

// The range helpers refuse what the protocols cannot act on — an index
// outside its table, a negative count — and the refusal sticks like any
// other failure.
func TestReaderRangeHelpers(t *testing.T) {
	r := NewBuffer().PkInt(0).PkInt(2).PkInt(0).PkInt(1).Reader()
	if v, c := r.UpkIndex(2), r.UpkCount(); v != 0 || c != 2 || r.Err() != nil {
		t.Fatalf("in range: %d, %d, %v", v, c, r.Err())
	}
	if v := r.UpkIndex(0); v != 0 || !errs.Is(r.Err(), CodeOutOfRange) {
		t.Fatalf("UpkIndex(0) = %d, err = %v", v, r.Err())
	}
	if v := r.UpkInt(); v != 0 || remaining(r) != 1 {
		t.Fatalf("after refusal: %d, %d remaining", v, remaining(r))
	}
	for _, bad := range []int{-1, 3} {
		r := NewBuffer().PkInt(bad).Reader()
		if v := r.UpkIndex(3); v != 0 || !errs.Is(r.Err(), CodeOutOfRange) {
			t.Fatalf("UpkIndex(3) of %d = %d, err = %v", bad, v, r.Err())
		}
	}
	r = NewBuffer().PkInt(-1).Reader()
	if v := r.UpkCount(); v != 0 || !errs.Is(r.Err(), CodeOutOfRange) {
		t.Fatalf("UpkCount of -1 = %d, err = %v", v, r.Err())
	}
}

func TestBufferIndependentReaders(t *testing.T) {
	b := NewBuffer().PkInt(1).PkInt(2)
	r1, r2 := b.Reader(), b.Reader()
	if r1.UpkInt() != 1 || r2.UpkInt() != 1 {
		t.Fatal("readers not independent")
	}
	if r1.UpkInt() != 2 {
		t.Fatal("reader 1 lost position")
	}
}

func TestPropBufferRoundTrip(t *testing.T) {
	f := func(ints []int16, floats []float64, blob []byte, s string, virt uint16) bool {
		b := NewBuffer()
		for _, v := range ints {
			b.PkInt(int(v))
		}
		b.PkFloat64s(floats).PkBytes(blob).PkString(s).PkVirtual(int(virt))
		r := b.Reader()
		for _, v := range ints {
			if r.UpkInt() != int(v) {
				return false
			}
		}
		f2, b2, s2, v2 := r.UpkFloat64s(), r.UpkBytes(), r.UpkString(), r.UpkVirtual()
		if r.Err() != nil || len(f2) != len(floats) {
			return false
		}
		for i := range floats {
			if f2[i] != floats[i] && !(floats[i] != floats[i]) { // NaN-tolerant
				return false
			}
		}
		return string(b2) == string(blob) && s2 == s && v2 == int(virt) && remaining(r) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationRecordMeasures(t *testing.T) {
	r := MigrationRecord{Start: 100, OffSource: 350, Reintegrated: 600}
	if r.Obtrusiveness() != 250 {
		t.Fatalf("obtrusiveness = %v", r.Obtrusiveness())
	}
	if r.Cost() != 500 {
		t.Fatalf("cost = %v", r.Cost())
	}
}
