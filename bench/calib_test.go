package main

import (
	"testing"
)

func TestCalibKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() { calibrate() }); n != 0 {
		t.Fatalf("calibration kernel allocated %v times per run", n)
	}
}

func TestCalibKernelDoesFixedWork(t *testing.T) {
	// The xorshift stream restarts from the same constant on every run, so
	// the sequence of touched words is identical run to run: two runs from
	// the same array contents must produce the same checksum and leave the
	// same contents behind.
	reset := func() {
		calibStream = [streamWords]uint64{}
		calibScatter = [scatterWords]uint64{}
		calibL2 = [l2Words]uint64{}
	}
	reset()
	a := calibKernel()
	stream, l2 := calibStream, calibL2
	scatter := calibScatter
	reset()
	b := calibKernel()
	if a != b || stream != calibStream || l2 != calibL2 || scatter != calibScatter {
		t.Fatalf("kernel is not a pure function of its arrays: checksums %x and %x", a, b)
	}
}

func BenchmarkCalibKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		calibSink += calibKernel()
	}
}
