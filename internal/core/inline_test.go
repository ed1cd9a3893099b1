package core

import (
	"reflect"
	"testing"

	"pvmigrate/internal/wirefmt"
)

var (
	sinkInt    int
	sinkString string
	sinkFloats []float64
)

// packSmall packs and unpacks the shape nearly every protocol message has:
// a few ints, a string tag and a float vector, read through a cursor held
// by value as pvm.Message holds it.
func packSmall(floats []float64, rd *Reader) {
	b := NewBuffer().PkString("state").PkInt(3).PkVirtual(4096).PkFloat64s(floats)
	rd.Reset(b)
	sinkString, sinkInt = rd.UpkString(), rd.UpkInt()
	sinkInt += rd.UpkVirtual()
	sinkFloats = rd.UpkFloat64s()
}

// A buffer of up to inlineItems items is one allocation, from NewBuffer to
// the last Upk.
func TestSmallBufferAllocs(t *testing.T) {
	floats := []float64{1, 2}
	var rd Reader
	if n := testing.AllocsPerRun(100, func() { packSmall(floats, &rd) }); n != 1 {
		t.Fatalf("NewBuffer + 4 Pk + cursor + 4 Upk allocates %v times, want 1 (the buffer)", n)
	}
	if err := rd.Err(); err != nil || sinkString != "state" || sinkInt != 4099 || len(sinkFloats) != 2 {
		t.Fatalf("unpacked %q %d %v, err %v", sinkString, sinkInt, sinkFloats, err)
	}
}

// Reset hands out a fresh cursor each time, so one Reader value reused
// across messages never carries a position or an error over.
func TestReaderResetIsFresh(t *testing.T) {
	b := NewBuffer().PkInt(1).PkInt(2)
	var rd Reader
	rd.Reset(b)
	rd.UpkInt()
	rd.UpkString() // type mismatch: the error sticks
	if rd.Err() == nil {
		t.Fatal("mismatch left no error")
	}
	rd.Reset(b)
	if v := rd.UpkInt(); v != 1 || rd.Err() != nil || remaining(&rd) != 1 {
		t.Fatalf("after Reset: UpkInt = %d, err %v, %d remaining; want 1, nil, 1", v, rd.Err(), remaining(&rd))
	}
	if other := b.Reader(); other.UpkInt() != 1 {
		t.Fatal("Reader() is not independent of a Reset cursor")
	}
}

// Packing past the inline storage moves every item to a slice of its own
// and clears the inline copies: the items read back in order, and the
// buffer equals its own decoded copy field for field.
func TestBufferSpillsPastInline(t *testing.T) {
	for n := 0; n <= 3*inlineItems; n++ {
		b := NewBuffer()
		for i := range n {
			if i%2 == 0 {
				b.PkInt(i)
			} else {
				b.PkString("s")
			}
		}
		rd := b.Reader()
		for i := range n {
			if i%2 == 0 {
				if v := rd.UpkInt(); v != i {
					t.Fatalf("n=%d: item %d = %d", n, i, v)
				}
			} else if rd.UpkString() != "s" {
				t.Fatalf("n=%d: item %d is not the string", n, i)
			}
		}
		if rd.Err() != nil || remaining(rd) != 0 {
			t.Fatalf("n=%d: err %v, %d left", n, rd.Err(), remaining(rd))
		}
		data, err := wirefmt.Append(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wirefmt.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("n=%d: decoded %+v, packed %+v", n, got, b)
		}
	}
}

func BenchmarkPackSmallBuffer(b *testing.B) {
	floats := []float64{1, 2}
	var rd Reader
	b.ReportAllocs()
	for range b.N {
		packSmall(floats, &rd)
	}
}
