package checkpoint

import (
	"pvmigrate/internal/errs"
	"pvmigrate/internal/sim"
)

// CodeNoSnapshot marks a Read of a key with no committed snapshot: nothing
// was ever committed under it.
const CodeNoSnapshot errs.Code = "checkpoint.no-snapshot"

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
// reads and a staged image whose commit record has not landed yet.
type entry struct {
	cur     Snapshot
	hasCur  bool
	staged  Snapshot
	staging bool
}

// Store is stable checkpoint storage: a keyed map of snapshots on a disk
// whose bandwidth is charged to the calling process. The coordinated
// checkpoint protocol in internal/ft writes through it, one key per image
// (the master's, each slave's).
//
// Writes are two-phase: the image is written in full, then a one-sector
// commit record makes it the snapshot recovery will read. An interrupt (or
// crash) between the two leaves a torn image that re-opening ignores: Read
// keeps returning the previously committed snapshot. Once a commit lands,
// Read returns only that latest image.
type Store struct {
	k       *sim.Kernel
	entries map[string]*entry
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

// stage records a fully written but uncommitted image for key. A staged
// image is invisible to Read until commit.
func (st *Store) stage(key string, epoch, bytes int, payload any) {
	e := st.entry(key)
	e.staged = Snapshot{Key: key, Epoch: epoch, Bytes: bytes, Payload: payload, WrittenAt: st.k.Now()}
	e.staging = true
}

// commit installs the staged image for key as the one Read returns. A
// commit with nothing staged is a no-op (the caller was interrupted before
// the image finished).
func (st *Store) commit(key string) {
	e := st.entry(key)
	if !e.staging {
		return
	}
	e.cur, e.hasCur = e.staged, true
	e.staged, e.staging = Snapshot{}, false
	st.commits = append(st.commits, e.cur)
}

// Write spends the image's disk time through sleep, stages it, spends the
// commit record's, and commits. sleep is how the writer passes virtual
// time: a proc's Sleep, or an MPVM task's SleepUntil, which lets a slave be
// evacuated mid-write and its image still land. On interruption at any
// point nothing new is committed and the interrupt error is returned: an
// interrupt mid-image stages nothing; one between image and commit record
// leaves a torn image that is discarded rather than trusted.
func (st *Store) Write(sleep func(sim.Time) error, key string, epoch, bytes int, payload any) error {
	if err := sleep(st.IOTime(bytes)); err != nil {
		return err
	}
	st.stage(key, epoch, bytes, payload)
	if err := sleep(st.CommitTime()); err != nil {
		st.discardStaged(key)
		return err
	}
	st.commit(key)
	return nil
}

// discardStaged drops an uncommitted staged image for key, modelling
// re-open finding an image without its commit record.
func (st *Store) discardStaged(key string) {
	e := st.entry(key)
	e.staged, e.staging = Snapshot{}, false
}

// Read charges the disk time to re-read the latest committed snapshot for
// key and returns it.
func (st *Store) Read(p *sim.Proc, key string) (Snapshot, error) {
	e, ok := st.entries[key]
	if !ok || !e.hasCur {
		return Snapshot{}, errs.Newf(CodeNoSnapshot, "no snapshot for %q", key)
	}
	s := e.cur
	if err := p.Sleep(st.IOTime(s.Bytes)); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// Commits returns every committed snapshot in commit order (all keys
// interleaved) — the chaos invariant checkers read this to assert commit
// monotonicity.
func (st *Store) Commits() []Snapshot { return st.commits }
