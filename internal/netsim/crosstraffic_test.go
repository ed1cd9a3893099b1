package netsim

import (
	"testing"

	"pvmigrate/internal/sim"
)

// measureGoodput times a 2 MB bulk transfer with the given cross-traffic.
func measureGoodput(t *testing.T, utilization float64) float64 {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, Params{})
	a, b := n.Attach(0), n.Attach(1)
	if utilization > 0 {
		StartCrossTraffic(n, 99, utilization)
	}
	l, err := b.Listen(1)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 2_000_000
	var done sim.Time
	k.Spawn("sink", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		if _, err := c.Recv(p); err == nil {
			done = p.Now()
		}
	})
	var start sim.Time
	k.Spawn("src", func(p *sim.Proc) {
		c, err := a.Dial(p, 1, 1)
		if err != nil {
			return
		}
		start = p.Now()
		c.Send(p, bytes, nil)
	})
	k.RunUntil(200 * 1e9) // bounded: cross-traffic would run forever
	if done == 0 {
		t.Fatal("transfer never completed")
	}
	return bytes / (done - start).Seconds()
}

func TestCrossTrafficDegradesGoodput(t *testing.T) {
	quiet := measureGoodput(t, 0)
	half := measureGoodput(t, 0.5)
	heavy := measureGoodput(t, 0.8)
	if !(quiet > half && half > heavy) {
		t.Fatalf("goodput not monotone: %.0f, %.0f, %.0f B/s", quiet, half, heavy)
	}
	// With 50% background utilization the foreground gets roughly half.
	ratio := half / quiet
	if ratio < 0.4 || ratio > 0.65 {
		t.Fatalf("50%% cross traffic left %.0f%% of goodput", ratio*100)
	}
}

func TestCrossTrafficPanicsOnBadUtilization(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, Params{})
	for _, u := range []float64{0, 1, -0.3, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("utilization %f accepted", u)
				}
			}()
			StartCrossTraffic(n, 1, u)
		}()
	}
}
