package netwire

import (
	"runtime"
	"testing"
)

// A wait that completes normally must leave nothing live behind it: under
// the go 1.22 timer semantics go.mod pins, an un-stopped 30 s timer stays
// in the runtime heap until it fires, so a long wire run would accumulate
// one timer and channel per received frame.
func TestAwaitWireLeavesNoTimerBehind(t *testing.T) {
	const n = 20_000
	ch := make(chan int, 1)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		ch <- i
		if v, ok, timedOut := awaitWire(ch); v != i || !ok || timedOut {
			t.Fatalf("awaitWire = %d, %v, %v; want %d, true, false", v, ok, timedOut, i)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if live := int64(m1.HeapObjects) - int64(m0.HeapObjects); live > n/10 {
		t.Errorf("%d completed waits left %d heap objects live, want ~0", n, live)
	}

	close(ch)
	if _, ok, timedOut := awaitWire(ch); ok || timedOut {
		t.Errorf("closed channel: ok=%v timedOut=%v, want false, false", ok, timedOut)
	}
}
