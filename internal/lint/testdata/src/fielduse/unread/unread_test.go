package lintfixture

import "testing"

// A test's read does not count: the loader reads no _test.go file.
func TestTap(t *testing.T) {
	c := &Conn{mtu: 1, peers: make([]int, 1)}
	c.Send(3)
	if c.tap != 3 {
		t.Fatal(c.tap)
	}
}
