package netwire

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
)

// A frame whose packet never reaches its receive fails with wire.lost at
// once: every write is queued when it returns, so the receive's read finds
// the pair empty instead of waiting for bytes that cannot come. The packet
// is read off the pair behind the backend's back.
func TestLostFrameFailsAtOnce(t *testing.T) {
	b := New()
	defer b.Shutdown()
	b.AttachHost(0)
	b.AttachHost(1)
	tok, err := b.SendDgram(0, 701, 1, 700, "lost")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := restart(read, b.hosts[1].rfd, make([]byte, maxPacket)); err != nil {
		t.Fatalf("read the packet behind the backend: %v", err)
	}
	start := time.Now()
	v, err := b.RecvDgram(tok)
	if !errs.Is(err, CodeLost) || !errors.Is(err, ErrLost) {
		t.Fatalf("receive of a lost frame = %v, %v; want %s wrapping ErrLost", v, err, CodeLost)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("receive of a lost frame took %v, want an immediate failure", d)
	}
}

// restart makes a socket call again while a signal interrupts it (EINTR),
// and passes on whatever else the call returns: a success, or EAGAIN, an
// empty pair on a read.
func TestRestartRetriesEINTR(t *testing.T) {
	for _, last := range []error{nil, syscall.EAGAIN} {
		for _, k := range []int{0, 1, 5} {
			calls := 0
			fake := func(fd int, pkt []byte) (int, error) {
				calls++
				switch {
				case calls <= k:
					return -1, syscall.EINTR
				case last != nil:
					return -1, last
				}
				return len(pkt), nil
			}
			n, err := restart(fake, 3, make([]byte, 7))
			if calls != k+1 {
				t.Errorf("%d EINTRs then %v: %d calls, want %d", k, last, calls, k+1)
			}
			if last == nil && (n != 7 || err != nil) {
				t.Errorf("%d EINTRs then success = %d, %v; want 7, nil", k, n, err)
			}
			if last != nil && err != last {
				t.Errorf("%d EINTRs then %v: err = %v", k, last, err)
			}
		}
	}
}

// Shutdown closes both ends of every host's pair. A closed descriptor
// number may be reused at once by anything else in the process, so each is
// checked by the identity of the socket behind it (device and inode, never
// reused for another socket while the test runs), not by the number alone.
func TestShutdownClosesSockets(t *testing.T) {
	b := New()
	for h := netsim.HostID(0); h < 4; h++ {
		b.AttachHost(h)
	}
	open := make(map[int]syscall.Stat_t, 2*len(b.hosts))
	for _, s := range b.hosts {
		for _, fd := range []int{s.rfd, s.wfd} {
			var st syscall.Stat_t
			if err := syscall.Fstat(fd, &st); err != nil {
				t.Fatalf("host %d socket %d: %v", s.host, fd, err)
			}
			open[fd] = st
		}
	}
	if len(open) != 8 {
		t.Fatalf("%d distinct descriptors for 4 hosts, want 8", len(open))
	}
	b.Shutdown()
	for fd, was := range open {
		var st syscall.Stat_t
		switch err := syscall.Fstat(fd, &st); {
		case err == nil && st.Dev == was.Dev && st.Ino == was.Ino:
			t.Errorf("fd %d still holds its host socket after Shutdown", fd)
		case err != nil && err != syscall.EBADF:
			t.Errorf("fd %d after Shutdown: %v, want EBADF or another file", fd, err)
		}
	}
}

// A pair whose buffer fills before the backlog bound makes a write fail
// with EAGAIN; the send drains the pair and writes again, so a burst still
// arrives whole and in order. An unread datagram is charged to the writer's
// send buffer on Linux and to the reader's receive buffer on darwin, so
// both are shrunk far below what the burst needs.
func TestFullPairDrainsBeforeBacklogBound(t *testing.T) {
	const n = 4 * backlogBound
	b := New()
	defer b.Shutdown()
	b.AttachHost(0)
	b.AttachHost(1)
	s := b.hosts[1]
	for _, o := range []struct{ fd, opt int }{{s.wfd, syscall.SO_SNDBUF}, {s.rfd, syscall.SO_RCVBUF}} {
		if err := syscall.SetsockoptInt(o.fd, syscall.SOL_SOCKET, o.opt, 8<<10); err != nil {
			t.Fatalf("shrink buffer: %v", err)
		}
	}
	toks := make([]uint64, n)
	high := 0
	for i := range toks {
		tok, err := b.SendDgram(0, 701, 1, 700, burstPayload(i))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		toks[i] = tok
		high = max(high, s.unread.n)
	}
	if high >= backlogBound {
		t.Errorf("unread high-water %d packets: the pair never filled before the bound %d", high, backlogBound)
	}
	for i, tok := range toks {
		v, err := b.RecvDgram(tok)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got, _ := v.([]byte); !bytes.Equal(got, burstPayload(i)) {
			t.Fatalf("datagram %d = %x, want %x", i, got, burstPayload(i))
		}
	}
	if st := b.Stats(); st.PacketsRead != n {
		t.Errorf("read %d packets, want each of the %d written once", st.PacketsRead, n)
	}
}

// bind refuses a pair whose buffers cannot hold one full packet, and
// closes what it made.
func TestBindRefusesBufferBelowOnePacket(t *testing.T) {
	s, err := bind(0, 1<<10)
	if err == nil {
		s.close()
		t.Fatal("bind with a 1 KiB buffer succeeded, want a refusal")
	}
	if !errs.Is(err, CodeIO) {
		t.Errorf("bind with a 1 KiB buffer: %v, want %s", err, CodeIO)
	}
	s, err = bind(0, sockBuffer)
	if err != nil {
		t.Fatalf("bind with the shipped buffer: %v", err)
	}
	s.close()
}

// The package syscall calls the pair path makes allocate nothing: the
// exemptions the noalloc analyzer grants them (lint's allocDeny) rest on
// this.
func TestSocketCallsAllocateNothing(t *testing.T) {
	pkt := make([]byte, 64)
	pair := func() {
		syscall.ForkLock.RLock()
		fd, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
		if err == nil {
			syscall.CloseOnExec(fd[0])
			syscall.CloseOnExec(fd[1])
		}
		syscall.ForkLock.RUnlock()
		if err != nil {
			t.Fatalf("socketpair: %v", err)
		}
		if err := syscall.SetNonblock(fd[0], true); err != nil {
			t.Fatalf("set nonblock: %v", err)
		}
		if err := syscall.SetsockoptInt(fd[1], syscall.SOL_SOCKET, syscall.SO_SNDBUF, sockBuffer); err != nil {
			t.Fatalf("set send buffer: %v", err)
		}
		if _, err := syscall.GetsockoptInt(fd[1], syscall.SOL_SOCKET, syscall.SO_SNDBUF); err != nil {
			t.Fatalf("get send buffer: %v", err)
		}
		if _, err := syscall.Write(fd[1], pkt); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := syscall.Read(fd[0], pkt); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := syscall.Read(fd[0], pkt); err != syscall.EAGAIN {
			t.Fatalf("read of an empty pair: %v, want EAGAIN", err)
		}
		syscall.Close(fd[0])
		syscall.Close(fd[1])
	}
	pair()
	if n := testing.AllocsPerRun(50, pair); n != 0 {
		t.Errorf("the pair path's syscall calls allocate %v times, want 0", n)
	}
}
