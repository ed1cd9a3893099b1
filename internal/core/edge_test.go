package core

import (
	"testing"

	"pvmigrate/internal/errs"
)

func TestPkBufferRoundTrip(t *testing.T) {
	inner := NewBuffer().PkInt(7).PkString("payload")
	outer := NewBuffer().PkInt(1).PkBuffer(inner).PkInt(2)
	if outer.Bytes() != 4+(inner.Bytes()+4)+4 {
		t.Fatalf("outer bytes = %d", outer.Bytes())
	}
	r := outer.Reader()
	if r.UpkInt() != 1 {
		t.Fatal("prefix lost")
	}
	if got := r.UpkBuffer(); got != inner {
		t.Fatalf("UpkBuffer = %v, %v", got, r.Err())
	}
	if ir := inner.Reader(); ir.UpkInt() != 7 {
		t.Fatal("inner content lost")
	}
	if r.UpkInt() != 2 {
		t.Fatal("suffix lost")
	}
}

func TestBufferItemsAndReaderBytes(t *testing.T) {
	b := NewBuffer().PkInt(1).PkVirtual(100)
	if len(b.items) != 2 {
		t.Fatalf("Items = %d", len(b.items))
	}
	if b.Bytes() != 4+100 {
		t.Fatalf("bytes = %d, want an int's 4 plus 100 virtual", b.Bytes())
	}
	r := b.Reader()
	if remaining(r) != 2 {
		t.Fatalf("Remaining = %d", remaining(r))
	}
}

func TestUpkBufferTypeMismatch(t *testing.T) {
	r := NewBuffer().PkInt(1).Reader()
	if b := r.UpkBuffer(); b != nil || !errs.Is(r.Err(), CodeTypeMismatch) {
		t.Fatalf("UpkBuffer = %v, err = %v", b, r.Err())
	}
}

// A reader that ran past the end stays failed: every later call returns a
// zero value, never a panic, and Err still names the first failure.
func TestReaderStaysFailedPastEnd(t *testing.T) {
	r := NewBuffer().Reader()
	r.UpkInt()
	if s, b := r.UpkString(), r.UpkBuffer(); s != "" || b != nil || !errs.Is(r.Err(), CodePastEnd) {
		t.Fatalf("after past end: %q, %v, err = %v", s, b, r.Err())
	}
}

func TestPkVirtualNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative virtual size accepted")
		}
	}()
	NewBuffer().PkVirtual(-1)
}
