package checkpoint

import (
	"fmt"

	"pvmigrate/internal/sim"
)

// Snapshot is one committed checkpoint image.
type Snapshot struct {
	Key   string
	Epoch int
	// Bytes is the image size; it determines disk I/O time.
	Bytes int
	// Payload carries the simulated contents (by reference, like the rest
	// of the model).
	Payload   any
	WrittenAt sim.Time
}

// commitBytes is the size of the commit record: one sector carrying the
// image's identity and checksum. Until it is on disk, the image it covers
// does not exist as far as recovery is concerned.
const commitBytes = 512

// entry is the on-disk state for one key: the committed snapshot recovery
// reads, the previously committed one (still on disk — images alternate
// between two slots, as classic checkpoint libraries do), and a staged image
// whose commit record has not landed yet.
type entry struct {
	cur     Snapshot
	hasCur  bool
	prev    Snapshot
	hasPrev bool
	staged  Snapshot
	staging bool
}

// Store is stable checkpoint storage: a keyed map of snapshots on a disk
// whose bandwidth is charged to the calling process. Both the §5.0
// Condor-style single-job policy (RunCheckpointed) and the coordinated
// checkpoint protocol in internal/ft write through it.
//
// Writes are two-phase: the image is written in full, then a one-sector
// commit record makes it the snapshot recovery will read. An interrupt (or
// crash) between the two leaves a torn image that re-opening ignores: Read
// keeps returning the previously committed snapshot. The prior committed
// image stays on disk until the next commit replaces it, so a latest image
// found corrupt at re-open (CorruptLatest) also falls back one generation.
type Store struct {
	k       *sim.Kernel
	entries map[string]*entry

	writes  int
	commits []Snapshot
}

// diskBps is the store's disk bandwidth for checkpoint writes and reads,
// bytes/s: a 1994 SCSI disk sustains ~1.5 MB/s.
const diskBps float64 = 1.5e6

// NewStore creates a store on kernel k.
func NewStore(k *sim.Kernel) *Store {
	return &Store{k: k, entries: make(map[string]*entry)}
}

// IOTime returns the disk time for an image of the given size.
func (st *Store) IOTime(bytes int) sim.Time {
	return sim.FromSeconds(float64(bytes) / diskBps)
}

// CommitTime returns the disk time for the one-sector commit record.
func (st *Store) CommitTime() sim.Time { return st.IOTime(commitBytes) }

func (st *Store) entry(key string) *entry {
	e, ok := st.entries[key]
	if !ok {
		e = &entry{}
		st.entries[key] = e
	}
	return e
}

// Stage records a fully written but uncommitted image for key. Callers that
// charge disk time themselves (the ft manager, which must stay
// migration-transparent while sleeping) use Stage + Commit directly; Write
// wraps the whole sequence for everyone else. A staged image is invisible to
// Read/Latest until Commit.
func (st *Store) Stage(key string, epoch, bytes int, payload any) {
	e := st.entry(key)
	e.staged = Snapshot{Key: key, Epoch: epoch, Bytes: bytes, Payload: payload, WrittenAt: st.k.Now()}
	e.staging = true
}

// Commit installs the staged image for key: the previously committed
// snapshot is kept one generation back, the staged one becomes current. A
// Commit with nothing staged is a no-op (the caller was interrupted before
// the image finished).
func (st *Store) Commit(key string) {
	e := st.entry(key)
	if !e.staging {
		return
	}
	if e.hasCur {
		e.prev, e.hasPrev = e.cur, true
	}
	e.cur, e.hasCur = e.staged, true
	e.staged, e.staging = Snapshot{}, false
	st.writes++
	st.commits = append(st.commits, e.cur)
}

// Write charges the image's disk time to p, stages it, charges the commit
// record, and commits. On interruption at any point nothing new is
// committed and the interrupt error is returned: an interrupt mid-image
// stages nothing; one between image and commit record leaves a torn image
// that is discarded (DiscardStaged) rather than trusted.
func (st *Store) Write(p *sim.Proc, key string, epoch, bytes int, payload any) error {
	if err := p.Sleep(st.IOTime(bytes)); err != nil {
		return err
	}
	st.Stage(key, epoch, bytes, payload)
	if err := p.Sleep(st.CommitTime()); err != nil {
		st.DiscardStaged(key)
		return err
	}
	st.Commit(key)
	return nil
}

// DiscardStaged drops an uncommitted staged image for key, modelling
// re-open finding an image without its commit record.
func (st *Store) DiscardStaged(key string) {
	e := st.entry(key)
	e.staged, e.staging = Snapshot{}, false
}

// CorruptLatest marks the committed image for key unreadable (a torn or
// bit-rotted latest found at re-open): recovery falls back to the previous
// committed generation. It reports whether a fallback generation existed.
func (st *Store) CorruptLatest(key string) bool {
	e, ok := st.entries[key]
	if !ok || !e.hasCur {
		return false
	}
	if !e.hasPrev {
		e.cur, e.hasCur = Snapshot{}, false
		return false
	}
	e.cur, e.hasCur = e.prev, true
	e.prev, e.hasPrev = Snapshot{}, false
	return true
}

// Seed installs a committed snapshot without charging disk time — the
// initial image that exists before the job starts (e.g. the executable's
// data segment).
func (st *Store) Seed(key string, epoch, bytes int, payload any) {
	st.Stage(key, epoch, bytes, payload)
	e := st.entry(key)
	if e.hasCur {
		e.prev, e.hasPrev = e.cur, true
	}
	e.cur, e.hasCur = e.staged, true
	e.staged, e.staging = Snapshot{}, false
}

// Read charges the disk time to re-read the latest committed snapshot for
// key and returns it.
func (st *Store) Read(p *sim.Proc, key string) (Snapshot, error) {
	e, ok := st.entries[key]
	if !ok || !e.hasCur {
		return Snapshot{}, fmt.Errorf("checkpoint: no snapshot for %q", key)
	}
	s := e.cur
	if err := p.Sleep(st.IOTime(s.Bytes)); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// Latest returns the latest committed snapshot for key without charging I/O
// time (kernel-context peeking, e.g. deciding whether recovery is possible).
func (st *Store) Latest(key string) (Snapshot, bool) {
	e, ok := st.entries[key]
	if !ok || !e.hasCur {
		return Snapshot{}, false
	}
	return e.cur, true
}

// Staging reports whether key has a written-but-uncommitted image.
func (st *Store) Staging(key string) bool {
	e, ok := st.entries[key]
	return ok && e.staging
}

// Commits returns every committed snapshot in commit order (all keys
// interleaved) — the chaos invariant checkers read this to assert commit
// monotonicity.
func (st *Store) Commits() []Snapshot { return st.commits }

// Writes returns how many charged writes committed.
func (st *Store) Writes() int { return st.writes }
