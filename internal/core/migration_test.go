package core

import "testing"

// TestBarrier drives a flush barrier through each rule it enforces. Every
// case opens generation 2 over hosts 0..3 with members 0, 1 and 3 (host 2
// is not one), then applies steps in order; each step states whether it
// counts and whether the barrier is done after it.
func TestBarrier(t *testing.T) {
	type step struct {
		op         string // "ack", "off" or "close"
		gen, host  int
		counts     bool
		done       bool
		have, want int
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"each member counts once", []step{
			{"ack", 2, 0, true, false, 1, 3},
			{"ack", 2, 0, false, false, 1, 3},
			{"ack", 2, 1, true, false, 2, 3},
			{"ack", 2, 3, true, true, 3, 3},
		}},
		{"a non-member's ack is ignored", []step{
			{"ack", 2, 2, false, false, 0, 3},
			{"ack", 2, 7, false, false, 0, 3},
			{"ack", 2, -1, false, false, 0, 3},
			{"ack", 2, 0, true, false, 1, 3},
			{"ack", 2, 1, true, false, 2, 3},
			{"ack", 2, 2, false, false, 2, 3},
		}},
		{"a write-off can complete the barrier", []step{
			{"ack", 2, 0, true, false, 1, 3},
			{"ack", 2, 1, true, false, 2, 3},
			{"off", 0, 3, true, true, 2, 2},
		}},
		{"a write-off after an ack is a no-op", []step{
			{"ack", 2, 1, true, false, 1, 3},
			{"off", 0, 1, false, false, 1, 3},
			{"off", 0, 2, false, false, 1, 3},
			{"off", 0, 3, true, false, 1, 2},
			{"off", 0, 3, false, false, 1, 2},
			{"ack", 2, 3, false, false, 1, 2},
		}},
		{"an ack after done is inert", []step{
			{"off", 0, 0, true, false, 0, 2},
			{"off", 0, 1, true, false, 0, 1},
			{"ack", 2, 3, true, true, 1, 1},
			{"ack", 2, 0, false, true, 1, 1},
			{"off", 0, 3, false, true, 1, 1},
		}},
		{"a stale generation is inert", []step{
			{"ack", 1, 0, false, false, 0, 3},
			{"ack", 3, 0, false, false, 0, 3},
			{"ack", 2, 0, true, false, 1, 3},
		}},
		{"a closed barrier counts nothing", []step{
			{"ack", 2, 0, true, false, 1, 3},
			{"close", 0, 0, false, false, 1, 3},
			{"ack", 2, 1, false, false, 1, 3},
			{"off", 0, 3, false, false, 1, 3},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b Barrier
			// A previous generation over a different member set must leave
			// nothing behind.
			b.Open(1, 5, func(int) bool { return true })
			b.Ack(1, 2)
			b.Open(2, 4, func(h int) bool { return h != 2 })
			if b.Gen() != 2 || b.Done() {
				t.Fatalf("opened: gen %d done %v, want 2 and false", b.Gen(), b.Done())
			}
			for i, s := range tc.steps {
				var counted bool
				switch s.op {
				case "ack":
					counted = b.Ack(s.gen, s.host)
				case "off":
					counted = b.WriteOff(s.host)
				case "close":
					b.Close()
				}
				have, want := b.Counts()
				if counted != s.counts || b.Done() != s.done || have != s.have || want != s.want {
					t.Fatalf("step %d %s(%d, host %d): counted %v done %v %d/%d, want %v %v %d/%d",
						i, s.op, s.gen, s.host, counted, b.Done(), have, want, s.counts, s.done, s.have, s.want)
				}
			}
		})
	}
}

// TestBarrierWithoutMembersIsDone: a barrier with nothing to wait on is
// complete the moment it opens.
func TestBarrierWithoutMembersIsDone(t *testing.T) {
	var b Barrier
	b.Open(1, 3, func(int) bool { return false })
	if !b.Done() {
		t.Fatal("empty barrier not done")
	}
	if b.Ack(1, 0) || b.WriteOff(0) {
		t.Fatal("empty barrier counted a host")
	}
}
