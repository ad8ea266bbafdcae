package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xtq/internal/store"
	"xtq/internal/wal"
	"xtq/internal/xerr"
)

// Options configures a Follower.
type Options struct {
	// Primary is the primary xtqd's base URL (its /wal endpoints are
	// derived from it).
	Primary string
	// Dir, when non-empty, persists the follower's state — periodic
	// local checkpoints plus the replay position — so a restart resumes
	// tailing where it stopped instead of re-bootstrapping. Empty runs
	// fully in memory.
	Dir string
	// Replay configures how records re-evaluate (compiler, method,
	// parser depth). The follower may use a different method than the
	// primary: replay is method-independent.
	Replay store.ReplayOptions
	// HistoryDepth is the store's per-document snapshot ring size
	// (0 = store.DefaultHistoryDepth, negative disables).
	HistoryDepth int
	// CheckpointEvery writes a local checkpoint after this many applied
	// log bytes (only with Dir). Default 8 MiB; negative disables.
	CheckpointEvery int64
	// Poll is the long-poll wait per feed request. Default 2s.
	Poll time.Duration
	// MaxFetch caps bytes per feed response. Default 4 MiB; grows
	// automatically when a single record exceeds it.
	MaxFetch int64
	// Client overrides the HTTP client (tests inject failures here).
	Client *http.Client
	// Logf, when set, receives replication progress lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 8 << 20
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Second
	}
	if o.MaxFetch <= 0 {
		o.MaxFetch = defaultMaxChunk
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is a point-in-time reading of a follower's replication state.
type Stats struct {
	// Position is the next log byte the follower will fetch —
	// everything before it is applied.
	Position wal.Pos
	// Applied and AppliedBytes count records and bytes applied since
	// this process started.
	Applied      int64
	AppliedBytes int64
	// Tail is the primary's tail as of the last successful fetch.
	Tail wal.Pos
	// BehindBytes is the byte lag reported by the last fetch; -1 before
	// the first successful fetch.
	BehindBytes int64
	// BehindRecords is the record ("version") lag: primary commits not
	// yet applied here. -1 until the follower has fully caught up once
	// (the baseline that makes the primary's record counter comparable).
	BehindRecords int64
	// Connected reports whether the last feed request succeeded.
	Connected bool
	// Promoted reports a promoted (now writable) follower.
	Promoted bool
	// Err is the sticky failure that stopped tailing ("" while
	// healthy) — always a divergence or corruption, never a transient
	// network error.
	Err string
}

// Follower replicates one primary into a local read-only store by
// tailing its WAL feed and replaying every record through the store's
// recovery machinery. Reads on Store() are lock-free and isolated, as
// on any store; writes fail typed until Promote.
//
// The applier is a single goroutine; transient fetch failures retry
// with backoff, a compacted-away position re-bootstraps from the
// primary's checkpoint, and any verification failure — a garbled frame,
// a chain that does not link — stops tailing with a sticky typed
// Corrupt error naming the primary's segment and offset. A diverged
// follower keeps serving the reads it can prove; it never applies past
// the damage.
type Follower struct {
	st *store.Store
	o  Options
	c  *feedClient

	ctx    context.Context // canceled by Close/Promote
	cancel context.CancelFunc

	mu        sync.Mutex
	pos       wal.Pos // next byte to fetch
	gen       chan struct{}
	stats     Stats
	failed    error // sticky corrupt
	ckptKey   uint64
	sinceCkpt int64
	// recordBase anchors the primary's appended-record counter to this
	// follower's applied count, valid (haveBase) from the first full
	// catch-up until a primary restart breaks comparability.
	recordBase int64
	haveBase   bool

	promoted atomic.Bool
	stopOnce sync.Once
	done     chan struct{}
}

// positionFile is the on-disk replay position, written atomically next
// to the follower's local checkpoints. CkptKey names the checkpoint
// file (ckpt-<key>.ckpt) holding the store state at exactly
// Segment:Offset; a mismatch between the two files means a crash split
// the pair, and the follower re-bootstraps rather than guess.
type positionFile struct {
	Segment uint64 `json:"segment"`
	Offset  int64  `json:"offset"`
	CkptKey uint64 `json:"ckpt_key"`
}

// Start bootstraps a follower and begins tailing. With a Dir holding a
// consistent checkpoint + position pair it resumes locally; otherwise
// it bootstraps from the primary: fetch the newest checkpoint (if any),
// install it, and tail from the cut. Start fails if the primary is
// unreachable — a follower that never saw its primary has nothing sound
// to serve.
func Start(o Options) (*Follower, error) {
	o = o.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		st:     store.NewFollower(o.HistoryDepth),
		o:      o,
		c:      newFeedClient(o.Primary, o.Client),
		ctx:    ctx,
		cancel: cancel,
		gen:    make(chan struct{}),
		done:   make(chan struct{}),
	}
	f.stats.BehindBytes = -1
	f.stats.BehindRecords = -1
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			cancel()
			return nil, xerr.Wrap(xerr.IO, err)
		}
	}
	if !f.resumeLocal() {
		if err := f.bootstrap(ctx); err != nil {
			cancel()
			return nil, err
		}
	}
	go f.run()
	return f, nil
}

// Store returns the replica's document store: read-only until Promote,
// serving snapshots lock-free like any store.
func (f *Follower) Store() *store.Store { return f.st }

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.o.Primary }

// Err returns the sticky failure that stopped tailing, nil while
// healthy.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failed
}

// Stats returns a point-in-time reading of the replication state.
func (f *Follower) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.Position = f.pos
	s.Promoted = f.promoted.Load()
	if f.failed != nil {
		s.Err = f.failed.Error()
	}
	return s
}

// WaitMinVersion blocks until name's chain head reaches at least
// version — the read-your-writes wait. It returns nil immediately on a
// promoted follower (the local state is then authoritative). A context
// deadline returns the context error (the caller redirects to the
// primary); a sticky replication failure returns it typed.
func (f *Follower) WaitMinVersion(ctx context.Context, name string, version uint64) error {
	for {
		if v, ok := f.st.HeadVersion(name); ok && v >= version {
			return nil
		}
		if f.promoted.Load() {
			return nil
		}
		f.mu.Lock()
		failed := f.failed
		ch := f.gen
		f.mu.Unlock()
		if failed != nil {
			return failed
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Promote stops replication and makes the store writable. The local
// version chains continue seamlessly: the next write to a document
// commits at lastReplicated+1, exactly as it would have on the primary.
func (f *Follower) Promote() {
	if !f.promoted.CompareAndSwap(false, true) {
		return
	}
	f.stopLoop()
	f.st.Promote()
	f.mu.Lock()
	f.bumpGen()
	f.mu.Unlock()
	f.o.Logf("replica: promoted at %s", f.pos)
}

// Close stops replication. The store stays readable (and writable, if
// promoted).
func (f *Follower) Close() error {
	f.stopLoop()
	return nil
}

func (f *Follower) stopLoop() {
	f.stopOnce.Do(func() {
		f.cancel()
		<-f.done
	})
}

// bumpGen wakes WaitMinVersion waiters. Callers hold f.mu.
func (f *Follower) bumpGen() {
	close(f.gen)
	f.gen = make(chan struct{})
}

// fail records the sticky replication failure and wakes waiters.
func (f *Follower) fail(err error) {
	f.mu.Lock()
	if f.failed == nil {
		f.failed = err
	}
	f.bumpGen()
	f.mu.Unlock()
	f.o.Logf("replica: replication stopped: %v", err)
}

// resumeLocal tries to restore state from Dir: a position file naming a
// checkpoint that exists and parses. Any inconsistency is a clean miss
// — the caller falls back to a remote bootstrap.
func (f *Follower) resumeLocal() bool {
	if f.o.Dir == "" {
		return false
	}
	b, err := os.ReadFile(filepath.Join(f.o.Dir, "position.json"))
	if err != nil {
		return false
	}
	var p positionFile
	if json.Unmarshal(b, &p) != nil || p.Segment == 0 {
		return false
	}
	ck, err := wal.ReadCheckpointFile(wal.CheckpointPath(f.o.Dir, p.CkptKey))
	if err != nil {
		return false
	}
	if f.st.ResetToLogged(ck.Docs, wal.CheckpointPath(f.o.Dir, p.CkptKey), f.o.Replay) != nil {
		return false
	}
	f.pos = wal.Pos{Seq: p.Segment, Offset: p.Offset}
	f.ckptKey = p.CkptKey
	f.st.SetReplPos(f.pos)
	f.o.Logf("replica: resumed from local checkpoint %d at %s", p.CkptKey, f.pos)
	return true
}

// bootstrap (re)initializes from the primary: fetch its newest
// checkpoint if one exists, install it wholesale, and position the tail
// at the cut. Called at Start and again whenever the feed reports the
// follower's position compacted away (410).
func (f *Follower) bootstrap(ctx context.Context) error {
	st, err := f.c.status(ctx)
	if err != nil {
		return err
	}
	var docs []wal.CheckpointDoc
	pos := wal.Pos{Seq: 1}
	if len(st.Segments) > 0 {
		pos.Seq = st.Segments[0].Segment
	}
	ckName := "primary checkpoint"
	if st.CheckpointSeq > 0 {
		path := filepath.Join(os.TempDir(), "xtq-bootstrap.ckpt")
		if f.o.Dir != "" {
			path = filepath.Join(f.o.Dir, "bootstrap.ckpt")
		}
		ck, ok, err := f.c.checkpoint(ctx, path)
		if err != nil {
			return err
		}
		defer os.Remove(path)
		if ok {
			docs = ck.Docs
			// Tail from just past the cut; segment CheckpointSeq+1 always
			// exists on the primary (its numbering floors above every
			// checkpoint). If a newer checkpoint already compacted it, the
			// first fetch 410s and we bootstrap again.
			pos = wal.Pos{Seq: ck.Seq + 1}
			ckName = path
		}
	}
	if err := f.st.ResetToLogged(docs, ckName, f.o.Replay); err != nil {
		return err
	}
	f.mu.Lock()
	f.pos = pos
	f.sinceCkpt = 0
	f.stats.Applied = 0
	f.stats.AppliedBytes = 0
	f.stats.BehindBytes = -1
	f.stats.BehindRecords = -1
	f.bumpGen()
	f.mu.Unlock()
	f.st.SetReplPos(pos)
	if f.o.Dir != "" {
		if err := f.checkpointLocal(); err != nil {
			return err
		}
	}
	f.o.Logf("replica: bootstrapped from primary at %s (%d docs)", pos, len(docs))
	return nil
}

// run is the applier loop: fetch, verify, apply, persist — forever,
// until Close/Promote or a sticky failure.
func (f *Follower) run() {
	defer close(f.done)
	defer f.persistPosition() // best effort on the way out
	backoff := 50 * time.Millisecond
	note := func(connected bool) {
		f.mu.Lock()
		f.stats.Connected = connected
		f.mu.Unlock()
		if connected {
			mConnected.Set(1)
		} else {
			mConnected.Set(0)
		}
	}
	for {
		if f.ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		pos := f.pos
		f.mu.Unlock()
		ck, err := f.c.segment(f.ctx, pos.Seq, pos.Offset, f.o.Poll, f.o.MaxFetch)
		switch {
		case err == nil:
			note(true)
			backoff = 50 * time.Millisecond
			if !f.consume(pos, ck) {
				return // sticky failure recorded
			}
		case errors.Is(err, errGone):
			// Our position predates the primary's oldest live segment: a
			// checkpoint compacted it away while we were behind (or down).
			// Start over from the checkpoint.
			note(true)
			mRebootstraps.Inc()
			f.o.Logf("replica: position %s compacted on primary; re-bootstrapping", pos)
			if err := f.bootstrap(f.ctx); err != nil {
				if f.ctx.Err() != nil {
					return
				}
				f.o.Logf("replica: re-bootstrap failed: %v", err)
				backoff = f.sleep(backoff)
			}
		case errors.Is(err, errRewound), errors.Is(err, errNotYet):
			// The primary's log ends before our position (416), or the
			// segment we're mid-way through does not exist (404 — same
			// situation, one rotation later). We applied and possibly served
			// bytes the primary no longer has: divergence, not a retry.
			note(true)
			f.fail(xerr.New(xerr.Corrupt, pos.String(),
				"replica: primary log ends before our replay position (its unsynced tail was lost); local state has diverged"))
			return
		default:
			if f.ctx.Err() != nil {
				return
			}
			note(false)
			backoff = f.sleep(backoff)
		}
	}
}

func (f *Follower) sleep(backoff time.Duration) time.Duration {
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.ctx.Done():
	}
	return min(backoff*2, 2*time.Second)
}

// consume decodes and applies every whole frame in ck, advancing the
// position past each applied record. It reports false when a sticky
// failure stopped the follower.
func (f *Follower) consume(pos wal.Pos, ck chunk) bool {
	buf := ck.data
	used := 0
	for {
		at := wal.Pos{Seq: pos.Seq, Offset: pos.Offset + int64(used)}
		rec, n, err := wal.DecodeRecord(buf[used:], at.String())
		if wal.IsShortFrame(err) {
			break
		}
		if err != nil {
			// The frame is complete but garbled — CRC mismatch or framing
			// violation. Typed Corrupt from the codec, position included.
			f.fail(err)
			return false
		}
		if err := f.st.ApplyLogged(rec, at, f.o.Replay); err != nil {
			f.fail(err)
			return false
		}
		used += n
		f.noteApplied(at.Offset+int64(n), int64(n))
	}
	if used == 0 && len(buf) > 0 && int64(len(buf)) >= f.o.MaxFetch {
		// A single record larger than the fetch window: widen it.
		f.o.MaxFetch = min(f.o.MaxFetch*2, maxMaxChunk)
	}

	f.mu.Lock()
	f.stats.Tail = ck.tail
	if ck.behind >= 0 {
		f.stats.BehindBytes = max(ck.behind, 0) + int64(len(buf)-used)
	}
	f.trackRecordLag(ck)
	end := f.pos
	mBehindBytes.Set(f.stats.BehindBytes)
	mBehindRecords.Set(f.stats.BehindRecords)
	f.mu.Unlock()

	// Finished a sealed segment: continue at the next one.
	if ck.frozen && end.Seq == pos.Seq && end.Offset >= ck.size && used == len(buf) {
		f.mu.Lock()
		f.pos = wal.Pos{Seq: pos.Seq + 1}
		f.mu.Unlock()
		f.st.SetReplPos(wal.Pos{Seq: pos.Seq + 1})
	}
	if f.o.Dir != "" && f.sinceCkptLoad() >= f.o.CheckpointEvery && f.o.CheckpointEvery > 0 {
		if err := f.checkpointLocal(); err != nil {
			f.o.Logf("replica: local checkpoint failed: %v", err)
		}
	}
	return true
}

func (f *Follower) noteApplied(endOffset, n int64) {
	mAppliedRecords.Inc()
	f.mu.Lock()
	f.pos.Offset = endOffset
	f.stats.Applied++
	f.stats.AppliedBytes += n
	f.sinceCkpt += n
	f.bumpGen()
	pos := f.pos
	f.mu.Unlock()
	f.st.SetReplPos(pos)
}

func (f *Follower) sinceCkptLoad() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sinceCkpt
}

// trackRecordLag converts the primary's appended-record counter into a
// "versions behind" reading. The counter starts at the primary's Open,
// not at the log's origin, so it is only comparable after the follower
// has drained to the tail once: at that instant the baseline is
// (counter - applied), and from then on lag = counter - baseline -
// applied. A primary restart shrinks the counter and invalidates the
// baseline; lag reads -1 (unknown) until the next full catch-up.
// Callers hold f.mu.
func (f *Follower) trackRecordLag(ck chunk) {
	if ck.records < 0 {
		return
	}
	base := ck.records - f.stats.Applied
	switch {
	case f.stats.BehindBytes == 0:
		f.recordBase = base
		f.haveBase = true
		f.stats.BehindRecords = 0
	case f.haveBase:
		lag := ck.records - f.recordBase - f.stats.Applied
		if lag < 0 {
			f.haveBase = false // primary restarted; counter no longer comparable
			f.stats.BehindRecords = -1
		} else {
			f.stats.BehindRecords = lag
		}
	}
}

// checkpointLocal persists the follower's exact current state: a local
// checkpoint file holding every document (tombstones included) plus the
// position file naming it. The applier is this goroutine, so the
// capture is exact — the state is precisely "everything before pos".
// Both writes are atomic renames; a crash between them leaves a
// position file naming the previous checkpoint, which still pairs
// consistently (it described the previous position too — resumeLocal
// only trusts matched pairs).
func (f *Follower) checkpointLocal() error {
	f.mu.Lock()
	pos := f.pos
	key := f.ckptKey + 1
	f.mu.Unlock()

	caps := f.st.CaptureAll()
	cw, err := wal.NewCheckpointWriter(f.o.Dir, key, uint64(len(caps)))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, s := range caps {
		doc := wal.CheckpointDoc{Name: s.Name(), Version: s.Version(), Removed: s.Deleted()}
		if !s.Deleted() {
			buf.Reset()
			if err := s.WriteXML(&buf); err != nil {
				cw.Abort()
				return xerr.Wrap(xerr.IO, err)
			}
			doc.XML = buf.Bytes()
		}
		if err := cw.Add(doc); err != nil {
			cw.Abort()
			return err
		}
	}
	if err := cw.Close(); err != nil {
		return err
	}

	if err := writeAtomic(filepath.Join(f.o.Dir, "position.json"), positionFile{
		Segment: pos.Seq, Offset: pos.Offset, CkptKey: key,
	}); err != nil {
		return err
	}
	f.mu.Lock()
	f.ckptKey = key
	f.sinceCkpt = 0
	f.mu.Unlock()
	wal.RemoveCheckpointsBelow(f.o.Dir, key)
	f.o.Logf("replica: local checkpoint %d at %s (%d docs)", key, pos, len(caps))
	return nil
}

// persistPosition saves state on the way out of the applier loop. The
// position file must describe exactly the state in the checkpoint it
// names (a bare position update would claim records the checkpoint does
// not hold), so shutdown takes a full local checkpoint.
func (f *Follower) persistPosition() {
	if f.o.Dir == "" || f.Err() != nil {
		return
	}
	if err := f.checkpointLocal(); err != nil {
		f.o.Logf("replica: shutdown checkpoint failed: %v", err)
	}
}

func writeAtomic(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return xerr.Wrap(xerr.IO, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return xerr.Wrap(xerr.IO, err)
	}
	return nil
}
