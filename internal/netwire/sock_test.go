package netwire

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/netsim"
)

// A frame whose packet never reaches its receive fails with wire.timeout
// once the destination socket's receive timeout runs out. The packet is
// read off the socket behind the backend's back, and that socket's timeout
// is cut from wireTimeout to 200 ms so the test waits briefly.
func TestLostFrameTimesOut(t *testing.T) {
	b := New()
	defer b.Shutdown()
	b.AttachHost(0)
	b.AttachHost(1)
	dst := b.hosts[1]
	tv := syscall.NsecToTimeval(int64(200 * time.Millisecond))
	if err := syscall.SetsockoptTimeval(dst.fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		t.Fatalf("set receive timeout: %v", err)
	}
	tok, err := b.SendDgram(0, 701, 1, 700, "lost")
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := restart(read, dst.fd, make([]byte, len(b.pkt)), nil); err != nil {
		t.Fatalf("read the packet behind the backend: %v", err)
	}
	start := time.Now()
	v, err := b.RecvDgram(tok)
	if !errs.Is(err, CodeTimeout) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("receive of a lost frame = %v, %v; want %s wrapping ErrTimeout", v, err, CodeTimeout)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("receive of a lost frame took %v, want about the 200 ms socket timeout", d)
	}
}

// restart makes a socket call again while a signal interrupts it (EINTR),
// and passes on whatever else the call returns: a success, or EAGAIN, the
// timeout, which sockErr reports as wire.timeout.
func TestRestartRetriesEINTR(t *testing.T) {
	for _, last := range []error{nil, syscall.EAGAIN} {
		for _, k := range []int{0, 1, 5} {
			calls := 0
			fake := func(fd int, pkt []byte, _ *syscall.SockaddrInet4) (int, error) {
				calls++
				switch {
				case calls <= k:
					return -1, syscall.EINTR
				case last != nil:
					return -1, last
				}
				return len(pkt), nil
			}
			n, err := restart(fake, 3, make([]byte, 7), nil)
			if calls != k+1 {
				t.Errorf("%d EINTRs then %v: %d calls, want %d", k, last, calls, k+1)
			}
			if last == nil && (n != 7 || err != nil) {
				t.Errorf("%d EINTRs then success = %d, %v; want 7, nil", k, n, err)
			}
			if last != nil {
				if err != last {
					t.Errorf("%d EINTRs then %v: err = %v", k, last, err)
				}
				if e := (&Backend{}).sockErr("recv frame", err); !errors.Is(e, ErrTimeout) {
					t.Errorf("%d EINTRs then %v: classified as %v, want a timeout", k, last, e)
				}
			}
		}
	}
}

// Shutdown closes every host's socket. A closed descriptor number may be
// reused at once by anything else in the process, so each is checked by
// the identity of the socket behind it (device and inode, never reused
// for another socket while the test runs), not by the number alone.
func TestShutdownClosesSockets(t *testing.T) {
	b := New()
	for h := netsim.HostID(0); h < 4; h++ {
		b.AttachHost(h)
	}
	open := make(map[int]syscall.Stat_t, len(b.hosts))
	for _, s := range b.hosts {
		var st syscall.Stat_t
		if err := syscall.Fstat(s.fd, &st); err != nil {
			t.Fatalf("host %d socket: %v", s.host, err)
		}
		open[s.fd] = st
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
