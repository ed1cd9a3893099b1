// Package lintfixture holds struct fields that no non-test code reads.
package lintfixture

// Conn is written in each way a field can be without being read.
type Conn struct {
	sent  int   // want `field .*Conn\.sent is read by no non-test code`
	log   []int // want `field .*Conn\.log is read by no non-test code`
	tap   int   // want `field .*Conn\.tap is read by no non-test code`
	peers []int // want `field .*Conn\.peers is read by no non-test code`
	mtu   int
}

// Send counts, logs and taps n, and sizes it by the one field it reads.
func (c *Conn) Send(n int) int {
	c.sent += n
	c.sent++
	c.log = append(c.log, n)
	c.tap = n
	c.peers[0] = n
	return n / c.mtu
}
