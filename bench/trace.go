package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval at a layer boundary. Ordinary spans cover one call:
// Count is 1 and BusyNs is End−Start. A leaf that would otherwise be
// thousands of spans per op (one wire frame, one HTTP request of a class)
// is recorded once per enclosing span as an aggregate: Count calls that
// were busy BusyNs in total somewhere between Start and End.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index into the span list; -1 for an op
	Op      int32  `json:"op"`     // the op every span of one request shares
	Count   int64  `json:"count"`
	BusyNs  int64  `json:"busy_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// "tracing off" state: every method is a no-op that still runs the wrapped
// call, so a workload has one op body for both passes. It is used from one
// goroutine at a time (the simulator hands control between goroutines but
// never runs two at once); counters fed from socket reader goroutines are
// atomics owned by the decorator that feeds them, not by the tracer.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []int32
	op     int32
	factor []float64 // per op: calibration multiplier for its spans

	series map[string]*series
}

// series is a sample of per-call durations (ns) kept for percentiles where
// spans are aggregated. Values appended during an op are scaled by the op's
// calibration factor when the op ends.
type series struct {
	values []float64
	mark   int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, series: map[string]*series{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.stack = t.stack[:0]
	t.begin(name)
}

// endOp closes the op's root span and records the calibration factor that
// converts this op's wall durations into reference-machine time.
func (t *tracer) endOp(factor float64) {
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		t.end()
	}
	t.factor = append(t.factor, factor)
	for _, s := range t.series {
		for i := s.mark; i < len(s.values); i++ {
			s.values[i] *= factor
		}
		s.mark = len(s.values)
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: t.now(), Parent: parent, Op: t.op, Count: 1})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack)
	s := &t.spans[t.stack[n-1]]
	s.EndNs = t.now()
	s.BusyNs = s.EndNs - s.StartNs
	t.stack = t.stack[:n-1]
}

// leaf records an aggregate child of the current span: count calls, busy in
// total, all inside the current span's interval so far.
func (t *tracer) leaf(name string, count int64, busy time.Duration) {
	if t == nil || count == 0 {
		return
	}
	parent := t.stack[len(t.stack)-1]
	t.spans = append(t.spans, span{
		Name: name, StartNs: t.spans[parent].StartNs, EndNs: t.now(),
		Parent: parent, Op: t.op, Count: count, BusyNs: int64(busy),
	})
}

// sample appends one per-call duration to the named series.
func (t *tracer) sample(name string, d time.Duration) {
	if t == nil {
		return
	}
	s := t.series[name]
	if s == nil {
		s = &series{}
		t.series[name] = s
	}
	s.values = append(s.values, float64(d))
}

// values returns the named series' calibrated samples (ns).
func (t *tracer) values(name string) []float64 {
	if s := t.series[name]; s != nil {
		return s.values
	}
	return nil
}

// ops is the number of ops traced so far.
func (t *tracer) ops() int { return len(t.factor) }

// layerTotal sums, for one span name, calibrated busy time (ns) and call
// counts over every traced op.
type layerTotal struct {
	Busy  float64
	Count int64
}

func (t *tracer) totals() map[string]*layerTotal {
	out := map[string]*layerTotal{}
	for _, s := range t.spans {
		if int(s.Op) >= len(t.factor) {
			continue // op did not finish
		}
		f := t.factor[s.Op]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.Busy += float64(s.BusyNs) * f
		lt.Count += s.Count
	}
	return out
}

// selfCoverage is the trace's consistency check: the positive self times of
// all spans as a share of the root spans' time, and how many spans have
// negative self time. Self times telescope to exactly 1 when every child lies
// inside its parent; a leaf that double counts (children busier than their
// parent) shows as a negative span and a share above 1.
func (t *tracer) selfCoverage(root string) (share float64, negative int) {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += float64(s.BusyNs)
		if s.Parent >= 0 {
			self[s.Parent] -= float64(s.BusyNs)
		}
	}
	var pos, rootBusy float64
	for i, s := range t.spans {
		if int(s.Op) >= len(t.factor) {
			continue
		}
		switch {
		case self[i] > 0:
			pos += self[i]
		case self[i] < 0:
			negative++
		}
		if s.Name == root {
			rootBusy += float64(s.BusyNs)
		}
	}
	if rootBusy == 0 {
		return 0, negative
	}
	return pos / rootBusy, negative
}

// opNet returns each traced op's calibrated duration (ns) with the spans
// named in extras taken out: the time of the work the untraced op also does.
func (t *tracer) opNet(root string, extras []string) []float64 {
	net := make([]float64, len(t.factor))
	for _, s := range t.spans {
		if int(s.Op) >= len(net) {
			continue
		}
		d := float64(s.BusyNs) * t.factor[s.Op]
		if s.Name == root {
			net[s.Op] += d
		}
		for _, e := range extras {
			if s.Name == e {
				net[s.Op] -= d
			}
		}
	}
	return net
}

// perSpan returns, for spans named name, the calibrated busy ns of each
// occurrence — the sample a per-layer median is taken from.
func (t *tracer) perSpan(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && int(s.Op) < len(t.factor) {
			out = append(out, float64(s.BusyNs)*t.factor[s.Op])
		}
	}
	return out
}

// traceFile is the on-disk form of a traced pass.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Ops      int       `json:"ops"`
	Factor   []float64 `json:"calibration_factor_per_op"`
	Spans    []span    `json:"spans"`
}

// write stores the spans under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{Workload: workload, Seed: seed, Ops: t.ops(), Factor: t.factor, Spans: t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
