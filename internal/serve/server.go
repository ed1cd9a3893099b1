package serve

import (
	"io"
	"net/http"
	"sync"
	"time"

	"pvmigrate/internal/errs"
	"pvmigrate/internal/ft"
	"pvmigrate/internal/gs"
	"pvmigrate/internal/netsim"
	"pvmigrate/internal/sim"
)

// Options configures a Server.
type Options struct {
	// Config fixes the cluster (journaled as the header).
	Config Config
	// Wire, when non-nil, routes cross-host frames over a real transport.
	Wire netsim.Wire
	// Journal, when non-nil, receives the write-ahead command log.
	Journal io.Writer
	// TickWall, when > 0, starts the pacer: every TickWall of wall time
	// the daemon applies one journaled advance of TickVirtual, so virtual
	// time flows without a client driving it — and the flow is still
	// replayable, because each tick is an ordinary command in the log.
	TickWall time.Duration
	// TickVirtual is the pacer's advance per tick (default 100ms).
	TickVirtual sim.Time
}

// Server is the wall-clock half of the daemon: HTTP handlers serialized by
// one mutex around the Core, a write-ahead journal, and the SSE hub. It is
// an http.Handler; the caller owns the listener.
type Server struct {
	mu   sync.Mutex
	core *Core
	jw   *JournalWriter
	hub  *hub
	mux  *http.ServeMux

	lastTraceSent int
	shuttingDown  bool

	done      chan struct{} // closed by POST /v1/shutdown or Close
	closeOnce sync.Once
	pacerDone chan struct{} // pacer goroutine exited
}

// NewServer builds the cluster and, when a journal sink is given, writes
// the journal header. A config with an impossible count is refused with
// CodeBadRequest before anything is built or written.
func NewServer(opts Options) (*Server, error) {
	if err := opts.Config.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		core: NewCore(opts.Config, opts.Wire),
		hub:  &hub{},
		mux:  http.NewServeMux(),
		done: make(chan struct{}),
	}
	if opts.Journal != nil {
		jw, err := NewJournalWriter(opts.Journal, s.core.Config())
		if err != nil {
			s.core.Close()
			return nil, err
		}
		s.jw = jw
	}
	s.routes()
	if opts.TickWall > 0 {
		tick := opts.TickVirtual
		if tick <= 0 {
			tick = 100 * time.Millisecond
		}
		s.pacerDone = make(chan struct{})
		go s.pace(opts.TickWall, tick)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Done closes when a client posted /v1/shutdown or Close ran; the caller
// then shuts the http.Server down.
func (s *Server) Done() <-chan struct{} { return s.done }

// Close refuses further commands, closes the Core (no command reaches the
// kernel once shuttingDown is set under mu) and stops the pacer. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.shuttingDown = true
	s.core.Close()
	s.mu.Unlock()
	s.closeOnce.Do(func() { close(s.done) })
	if s.pacerDone != nil {
		<-s.pacerDone
	}
}

// pace maps wall-clock ticks to journaled virtual advances.
func (s *Server) pace(wall time.Duration, tick sim.Time) {
	defer close(s.pacerDone)
	t := time.NewTicker(wall)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			_, _ = s.mutate(CmdAdvance, func(cmd *Command) error {
				cmd.Advance = tick
				return nil
			}, nil)
		}
	}
}

// mutate is the single write path: stamp the command at the current
// virtual instant, journal it (real disk I/O under AwaitExternal, the
// kernel bridge), execute it, publish the resulting frame. fill validates
// and completes the command before it is journaled — a fill error means
// nothing was recorded. after, when non-nil, builds the response under the
// same lock.
func (s *Server) mutate(kind CommandKind, fill func(*Command) error,
	after func(*Core) any) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shuttingDown {
		return nil, errs.New(CodeShutdown, "daemon is shutting down", nil)
	}
	cmd := Command{Seq: s.core.applied + 1, At: s.core.Now(), Kind: kind}
	if fill != nil {
		if err := fill(&cmd); err != nil {
			return nil, err
		}
	}
	if s.jw != nil {
		var jerr error
		s.core.Kernel().AwaitExternal(func() { jerr = s.jw.Append(cmd) })
		if jerr != nil {
			return nil, jerr
		}
	}
	err := s.core.Apply(cmd)
	s.publishLocked()
	if err != nil {
		return nil, err
	}
	var res any
	if after != nil {
		res = after(s.core)
	}
	return res, nil
}

// view runs a read-only projection under the lock.
func (s *Server) view(fn func(*Core) any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fn(s.core)
}

// publishLocked pushes the post-command frame (snapshot + trace delta) to
// the hub. Caller holds mu.
func (s *Server) publishLocked() {
	ev := StreamEvent{
		Metrics: s.core.Metrics(),
		Trace:   traceViews(s.core.Trace(s.lastTraceSent)),
	}
	s.lastTraceSent = s.core.TraceLen()
	s.hub.publish(ev)
}

// subscribeFrame subscribes to the hub and snapshots the first stream
// frame (no trace delta) in one critical section. publishLocked also runs
// under mu, so no published frame can fall between the snapshot and the
// subscription — a fresh subscriber sees every trace delta after its
// snapshot exactly once.
func (s *Server) subscribeFrame() (chan StreamEvent, StreamEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hub.subscribe(), StreamEvent{Metrics: s.core.Metrics()}
}

// httpStatus maps structured error codes onto HTTP statuses. Codes from
// the layers below the control plane (ft, gs) surface as conflicts: the
// request was well-formed, the cluster's state refused it.
func httpStatus(code errs.Code) int {
	switch code {
	case CodeBadRequest, CodeUnknownCommand:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict,
		ft.CodeNoJob, ft.CodeJobFinished, ft.CodeNoCheckpoint,
		gs.CodeNoDestination, gs.CodeNoMovable:
		return http.StatusConflict
	case CodeShutdown:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
