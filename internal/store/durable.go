package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"xtq/internal/core"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/wal"
	"xtq/internal/xerr"
)

// Options configures a durable store opened with Open.
type Options struct {
	// Compile turns canonical update-query text back into a compiled
	// query during recovery and time-travel reconstruction. The facade
	// passes the engine's cache-backed Prepare; the default parses and
	// compiles directly.
	Compile func(src string) (*core.Compiled, error)
	// Method is the evaluation method replayed updates run under.
	// Default core.MethodTopDown. Any method recovers the same document
	// (the evaluators agree; the store's tests pin it), so a store may be
	// reopened under a different method than wrote it.
	Method core.Method
	// MaxDepth bounds element nesting when recovery re-parses logged
	// documents; 0 means no limit.
	MaxDepth int

	// Fsync is the commit durability policy (see wal.FsyncPolicy).
	// Default wal.FsyncAlways.
	Fsync wal.FsyncPolicy
	// SyncEvery is the wal.FsyncInterval period. Default 25ms.
	SyncEvery time.Duration
	// SegmentBytes rotates log segments at this size. Default 64 MiB.
	SegmentBytes int64

	// HistoryDepth is the per-document snapshot ring size (SnapshotAt's
	// lock-free window). Negative disables the ring; 0 means
	// DefaultHistoryDepth.
	HistoryDepth int
	// CheckpointEvery triggers a background checkpoint after this many
	// bytes of new log; 0 leaves checkpointing to explicit Checkpoint
	// calls.
	CheckpointEvery int64
}

func (o Options) withDefaults() Options {
	if o.Compile == nil {
		o.Compile = func(src string) (*core.Compiled, error) {
			q, err := core.ParseQuery(src)
			if err != nil {
				return nil, err
			}
			return q.Compile()
		}
	}
	// Replay compares its method against the ones that return their
	// input on a no-op, so it needs the concrete method auto runs as.
	o.Method = core.Resolve(o.Method)
	switch {
	case o.HistoryDepth < 0:
		o.HistoryDepth = 0
	case o.HistoryDepth == 0:
		o.HistoryDepth = DefaultHistoryDepth
	}
	return o
}

// CheckpointStats reports the work of the checkpoint/compaction layer
// since the store was opened.
type CheckpointStats struct {
	// Checkpoints completed (manual and background).
	Checkpoints int
	// LastSeq is the segment cut of the newest checkpoint: every record
	// in segments ≤ LastSeq is captured by it.
	LastSeq uint64
	// LastDocs and LastBytes are the newest checkpoint's document count
	// and serialized volume.
	LastDocs  int
	LastBytes int64
	// LastDuration is the wall time of the newest checkpoint.
	LastDuration time.Duration
	// SegmentsRemoved and TombstonesGCd accumulate compaction work:
	// fully-covered segments deleted and removed documents finally
	// forgotten.
	SegmentsRemoved int
	TombstonesGCd   int
	// LogBytes is the cumulative log volume appended since Open.
	LogBytes int64
}

// durable is the WAL binding of a Store opened with Open.
type durable struct {
	log  *wal.Log
	opts Options

	// gate closes the append→publish window during checkpoint rotation:
	// commits hold it for read from WAL append to CAS publish, rotation
	// holds it for write, so every record in a frozen segment is
	// published — and therefore captured — before the segment can be
	// declared covered.
	gate sync.RWMutex

	// ckptMu serializes checkpoints and time-travel reconstruction
	// (which must not race segment deletion).
	ckptMu sync.Mutex

	mu        sync.Mutex
	floor     map[string]uint64 // oldest log-reconstructable version per doc
	stats     CheckpointStats
	lastSize  int64 // log size at the last checkpoint (growth trigger)
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// Open opens (creating if necessary) a durable store rooted at dir: a
// write-ahead log of logical update records plus snapshot checkpoints.
// Recovery loads the newest checkpoint, then replays every later log
// record through the same engine paths that executed it live — puts
// re-parse, updates re-evaluate their canonical query text, removals
// re-publish tombstones — verifying the version chain as it goes.
// Corruption surfaces as a typed xerr.Corrupt error naming the segment
// file and byte offset.
//
// After Open returns, every successful Put/Apply/ApplyAt/Remove appends
// its logical record (honouring Options.Fsync) before publishing, so the
// store's committed state always survives a process kill and — under
// FsyncAlways — an OS crash. Close the store to stop the background
// checkpointer and sync the log.
func Open(dir string, o Options) (*Store, error) {
	o = o.withDefaults()

	ck, err := wal.ReadLatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(dir, wal.Options{
		Fsync:        o.Fsync,
		SyncEvery:    o.SyncEvery,
		SegmentBytes: o.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}

	st := NewWithHistory(o.HistoryDepth)
	d := &durable{opts: o, floor: make(map[string]uint64)}

	var afterSeq uint64
	if ck != nil {
		afterSeq = ck.Seq
		d.stats.LastSeq = ck.Seq
		for _, doc := range ck.Docs {
			if doc.Removed {
				// A tombstone the checkpoint retained (its GC did not
				// complete, or a writer held it): recovered as a tombstone
				// so the chain stays verifiable.
				st.recoverPublish(doc.Name, doc.Version, nil)
				continue
			}
			root, err := parseLogged(doc.XML, o.MaxDepth)
			if err != nil {
				log.Close()
				return nil, &xerr.Error{Kind: xerr.Corrupt, Pos: fmt.Sprintf("ckpt-%d:%s", ck.Seq, doc.Name),
					Msg: "store: checkpointed document does not parse", Err: err}
			}
			st.recoverPublish(doc.Name, doc.Version, root)
			d.floor[doc.Name] = doc.Version
		}
	}
	env := replayEnv{
		compile:  o.Compile,
		method:   o.Method,
		maxDepth: o.MaxDepth,
		noteFloor: func(name string, version uint64) {
			d.mu.Lock()
			if _, ok := d.floor[name]; !ok || version == 1 {
				d.floor[name] = version
			}
			d.mu.Unlock()
		},
	}
	if err := log.Replay(afterSeq, func(rec wal.Record, pos wal.Pos) error {
		return st.replayRecord(env, rec, pos)
	}); err != nil {
		log.Close()
		return nil, err
	}

	// Recovery is the other place tombstones die: they were needed
	// during replay to verify the chains (and to license restarts), but
	// a reopened store forgets removed documents entirely — the log
	// still records the removal, and a future re-ingest starts a fresh
	// chain at version 1, which replay accepts as the tombstone-restart
	// case.
	for name, ds := range st.docs {
		if s := ds.cur.Load(); s != nil && s.deleted() {
			delete(st.docs, name)
			delete(d.floor, name)
		}
	}

	d.log = log
	d.lastSize = log.Size()
	st.dur = d
	if o.CheckpointEvery > 0 {
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go d.checkpointLoop(st)
	}
	return st, nil
}

// Durable reports whether the store is backed by a write-ahead log.
func (st *Store) Durable() bool { return st.dur != nil }

// Close stops the background checkpointer and syncs and closes the log.
// In-memory stores return nil. Commits issued after Close fail.
func (st *Store) Close() error {
	d := st.dur
	if d == nil {
		return nil
	}
	var err error
	d.closeOnce.Do(func() {
		if d.stop != nil {
			close(d.stop)
			<-d.done
		}
		err = d.log.Close()
	})
	return err
}

// parseLogged parses document bytes from the log or a checkpoint.
func parseLogged(xml []byte, maxDepth int) (*tree.Node, error) {
	var tb sax.TreeBuilder
	p := sax.NewParserOptions(bytes.NewReader(xml), &tb, sax.Options{MaxDepth: maxDepth})
	if err := p.Parse(); err != nil {
		return nil, err
	}
	return tb.Document(), nil
}

// recoverPublish installs root as the snapshot of name at exactly
// version, returning the published snapshot. Recovery is
// single-goroutine: no CAS, no logging.
func (st *Store) recoverPublish(name string, version uint64, root *tree.Node) *Snapshot {
	ds := st.state(name)
	snap := &Snapshot{name: name, version: version}
	if root != nil {
		snap.root, snap.ix, _ = tree.Adopt(root)
	}
	ds.cur.Store(snap)
	ds.pushHist(snap)
	return snap
}

// replayEnv is what replaying one log record needs from its caller —
// shared by crash recovery (Open, which also tracks reconstruction
// floors) and the replication applier (ApplyLogged, which does not).
type replayEnv struct {
	compile  func(src string) (*core.Compiled, error)
	method   core.Method
	maxDepth int
	// noteFloor, when non-nil, is told about every replayed put so the
	// caller can maintain per-document reconstruction floors.
	noteFloor func(name string, version uint64)
}

// replayRecord applies one surviving log record to the recovering
// store, verifying the version chain strictly: because checkpoints
// capture state at exactly their segment cut (under the commit gate),
// no record is ever legitimately re-delivered, so every record must
// extend its document's chain by exactly one — with a single exception,
// the chain restart: a put at version 1 over a known tombstone, which
// only a completed tombstone garbage collection can produce. Anything
// else out of sequence is corruption, positioned at the record's
// segment and offset.
//
// The caller is the only goroutine advancing the store (recovery runs
// before Open returns; a follower has one applier). Publication is a
// plain atomic store, so concurrent lock-free readers are safe.
func (st *Store) replayRecord(env replayEnv, rec wal.Record, pos wal.Pos) error {
	chain := func(format string, args ...any) error {
		return xerr.New(xerr.Corrupt, pos.String(), "store: "+format, args...)
	}
	ds := st.lookup(rec.Name)
	var cur *Snapshot
	var curV uint64
	if ds != nil {
		cur = ds.cur.Load()
	}
	if cur != nil {
		curV = cur.version
	}
	switch rec.Kind {
	case wal.KindPut:
		switch {
		case cur == nil:
			if rec.Version != 1 {
				return chain("put creates %q at version %d, want 1", rec.Name, rec.Version)
			}
		case cur.deleted() && rec.Version == 1:
			// Chain restart after a garbage-collected removal: the old
			// chain's retained history is dead — clear the ring so stale
			// slots cannot shadow the new chain's versions.
			for i := range ds.hist {
				ds.hist[i].Store(nil)
			}
		case rec.Version != curV+1:
			return chain("put of %q jumps version %d → %d", rec.Name, curV, rec.Version)
		}
		root, err := parseLogged(rec.Doc, env.maxDepth)
		if err != nil {
			return &xerr.Error{Kind: xerr.Corrupt, Pos: pos.String(),
				Msg: fmt.Sprintf("store: logged document %q does not parse", rec.Name), Err: err}
		}
		snap := st.recoverPublish(rec.Name, rec.Version, root)
		if env.noteFloor != nil {
			env.noteFloor(rec.Name, rec.Version)
		}
		if hook := st.hookFn(); hook != nil {
			hook(CommitEvent{Name: rec.Name, Kind: CommitPut, Version: rec.Version, Prev: curV, Snap: snap, PrevSnap: cur})
		}
	case wal.KindUpdate:
		if cur == nil {
			return chain("update of unknown document %q", rec.Name)
		}
		if cur.deleted() {
			return chain("update of %q at version %d follows its removal", rec.Name, rec.Version)
		}
		if rec.Base != curV || rec.Version != curV+1 {
			return chain("update of %q has base %d over current %d", rec.Name, rec.Base, curV)
		}
		c, err := env.compile(rec.Query)
		if err != nil {
			return &xerr.Error{Kind: xerr.Corrupt, Pos: pos.String(),
				Msg: fmt.Sprintf("store: logged update of %q does not compile", rec.Name), Err: err}
		}
		out, err := c.EvalContext(context.Background(), cur.root, env.method)
		if err != nil {
			return &xerr.Error{Kind: xerr.Corrupt, Pos: pos.String(),
				Msg: fmt.Sprintf("store: replaying update of %q failed", rec.Name), Err: err}
		}
		next := &Snapshot{name: rec.Name, version: rec.Version}
		noop := out == cur.root
		if !noop && env.method != core.MethodTopDown && env.method != core.MethodTwoPass {
			noop = tree.Equal(out, cur.root)
		}
		if noop {
			next.root, next.ix = cur.root, cur.ix
		} else {
			next.root, next.ix, _ = tree.PathCopy(out, cur.ix)
		}
		ds.cur.Store(next)
		ds.pushHist(next)
		if hook := st.hookFn(); hook != nil {
			ev := CommitEvent{
				Name: rec.Name, Kind: CommitUpdate,
				Version: next.version, Prev: cur.version,
				Snap: next, PrevSnap: cur,
				Update: c, NoOp: noop,
			}
			if !noop {
				ev.Bridge = out
			}
			hook(ev)
		}
	case wal.KindRemove:
		if cur == nil || cur.deleted() {
			return chain("remove of %q which is not live", rec.Name)
		}
		if rec.Version != curV+1 {
			return chain("remove of %q jumps version %d → %d", rec.Name, curV, rec.Version)
		}
		snap := st.recoverPublish(rec.Name, rec.Version, nil)
		if hook := st.hookFn(); hook != nil {
			hook(CommitEvent{Name: rec.Name, Kind: CommitRemove, Version: rec.Version, Prev: curV, Snap: snap, PrevSnap: cur})
		}
	default:
		return chain("%s record in a log segment", rec.Kind)
	}
	return nil
}

// appendPut logs an ingest before it is published. isNew additionally
// seeds the reconstruction floor for a document the log creates.
func (d *durable) appendPut(name string, version uint64, root *tree.Node, isNew bool) error {
	var buf bytes.Buffer
	if err := root.WriteXML(&buf); err != nil {
		return xerr.Wrap(xerr.IO, err)
	}
	_, err := d.log.Append(&wal.Record{Kind: wal.KindPut, Name: name, Version: version, Doc: buf.Bytes()})
	if err != nil {
		return err
	}
	if isNew {
		d.mu.Lock()
		if _, ok := d.floor[name]; !ok {
			d.floor[name] = version
		}
		d.mu.Unlock()
	}
	return nil
}

// appendUpdate logs a committed update as its canonical query text —
// the logical record the paper's own syntax provides.
func (d *durable) appendUpdate(name string, base, version uint64, c *core.Compiled) error {
	_, err := d.log.Append(&wal.Record{
		Kind:    wal.KindUpdate,
		Name:    name,
		Version: version,
		Base:    base,
		Query:   c.Query.String(),
	})
	return err
}

// appendRemove logs a removal tombstone.
func (d *durable) appendRemove(name string, version uint64) error {
	_, err := d.log.Append(&wal.Record{Kind: wal.KindRemove, Name: name, Version: version})
	return err
}

func (d *durable) floorOf(name string) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.floor[name]
	return f, ok
}

// CheckpointStats reports checkpoint/compaction activity since Open.
// On an in-memory store it is all zeros.
func (st *Store) CheckpointStats() CheckpointStats {
	d := st.dur
	if d == nil {
		return CheckpointStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.LogBytes = d.log.Size()
	return s
}

// Checkpoint serializes the current snapshot of every live document
// into a checkpoint file, publishes it atomically, garbage-collects
// tombstoned documents and deletes the log segments the checkpoint
// covers. Reconstruction floors advance to the captured versions:
// versions older than the checkpoint are no longer time-travelable.
func (st *Store) Checkpoint(ctx context.Context) (CheckpointStats, error) {
	d := st.dur
	if d == nil {
		return CheckpointStats{}, xerr.New(xerr.Eval, "", "store: Checkpoint on an in-memory store (open with store.Open for durability)")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	start := time.Now()

	// Freeze the segment cut and capture the per-document heads inside
	// the same gate-locked section. The gate flushes the append→publish
	// window (no commit straddles the rotation), and capturing before
	// releasing it makes the checkpoint exactly the state at the cut:
	// every record in segments ≤ covered is reflected, every record in
	// later segments postdates every captured version. Recovery can
	// therefore verify the version chain strictly — no record is ever
	// legitimately re-delivered. The capture itself is pointer loads, so
	// writers stall only for the rotation fsync.
	type captured struct {
		name string
		ds   *docState
		snap *Snapshot
	}
	d.gate.Lock()
	covered, err := d.log.Rotate()
	var all []captured
	if err == nil {
		st.mu.RLock()
		all = make([]captured, 0, len(st.docs))
		for name, ds := range st.docs {
			all = append(all, captured{name, ds, ds.cur.Load()})
		}
		st.mu.RUnlock()
	}
	d.gate.Unlock()
	if err != nil {
		return st.CheckpointStats(), err
	}

	// Stream the capture into the checkpoint file one document at a
	// time, reusing one serialization buffer: peak memory is the largest
	// document, not the corpus.
	entries := 0
	for _, c := range all {
		if c.snap != nil {
			entries++
		}
	}
	cw, err := wal.NewCheckpointWriter(d.log.Dir(), covered, uint64(entries))
	if err != nil {
		return st.CheckpointStats(), err
	}
	var (
		buf      bytes.Buffer
		bytesOut int64
		liveDocs int
		tombs    []captured
		floors   = make(map[string]uint64, len(all))
	)
	for _, c := range all {
		if err := ctx.Err(); err != nil {
			cw.Abort()
			return st.CheckpointStats(), xerr.Wrap(xerr.Eval, err)
		}
		if c.snap == nil {
			continue // created but never published; no record can reference it yet
		}
		if c.snap.deleted() {
			// Tombstones are written into the checkpoint (name + version,
			// no bytes) and garbage-collected from the live map only after
			// the checkpoint is durable: recovery then knows the removed
			// document's version, so a chain-restarting put (version 1,
			// only possible after this GC) is provably not a gap.
			tombs = append(tombs, c)
			if err := cw.Add(wal.CheckpointDoc{Name: c.name, Version: c.snap.version, Removed: true}); err != nil {
				cw.Abort()
				return st.CheckpointStats(), err
			}
			continue
		}
		buf.Reset()
		if err := c.snap.WriteXML(&buf); err != nil {
			cw.Abort()
			return st.CheckpointStats(), xerr.Wrap(xerr.IO, err)
		}
		if err := cw.Add(wal.CheckpointDoc{Name: c.name, Version: c.snap.version, XML: buf.Bytes()}); err != nil {
			cw.Abort()
			return st.CheckpointStats(), err
		}
		bytesOut += int64(buf.Len())
		liveDocs++
		floors[c.name] = c.snap.version
	}
	if err := cw.Close(); err != nil {
		return st.CheckpointStats(), err
	}

	// The checkpoint is durable: compact. Tombstoned documents are
	// finally forgotten — their docState leaves the map (a racing writer
	// revalidates under lockWriter and restarts on a fresh chain), their
	// ring with it.
	var gcdNames []string
	st.mu.Lock()
	for _, c := range tombs {
		if st.docs[c.name] != c.ds {
			continue // replaced since capture
		}
		if !c.ds.wmu.TryLock() {
			continue // a writer is mid-commit on it; the next checkpoint will collect it
		}
		if s := c.ds.cur.Load(); s != nil && s.deleted() {
			delete(st.docs, c.name)
			gcdNames = append(gcdNames, c.name)
		}
		c.ds.wmu.Unlock()
	}
	st.mu.Unlock()

	removed, err := d.log.RemoveThrough(covered)
	if err != nil {
		return st.CheckpointStats(), err
	}
	if err := wal.RemoveCheckpointsBelow(d.log.Dir(), covered); err != nil {
		return st.CheckpointStats(), err
	}

	d.mu.Lock()
	for name, v := range floors {
		d.floor[name] = v
	}
	for _, name := range gcdNames {
		delete(d.floor, name)
	}
	d.stats.Checkpoints++
	d.stats.LastSeq = covered
	d.stats.LastDocs = liveDocs
	d.stats.LastBytes = bytesOut
	d.stats.LastDuration = time.Since(start)
	mCheckpointSeconds.Observe(d.stats.LastDuration)
	d.stats.SegmentsRemoved += removed
	d.stats.TombstonesGCd += len(gcdNames)
	d.lastSize = d.log.Size()
	stats := d.stats
	stats.LogBytes = d.lastSize
	d.mu.Unlock()
	return stats, nil
}

// checkpointLoop is the background checkpointer: it fires when the log
// has grown by Options.CheckpointEvery bytes since the last checkpoint.
func (d *durable) checkpointLoop(st *Store) {
	defer close(d.done)
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.mu.Lock()
			due := d.log.Size()-d.lastSize >= d.opts.CheckpointEvery
			d.mu.Unlock()
			if due {
				// Best effort: a failed background checkpoint leaves the
				// log longer, never the store wrong; the next tick retries.
				st.Checkpoint(context.Background())
			}
		}
	}
}

// errReconstructed aborts a reconstruction scan early once the target
// version is reached.
var errReconstructed = errors.New("store: reconstruction complete")

// reconstruct rebuilds name@version by replaying the log from the last
// checkpoint — the slow half of SnapshotAt, for versions that fell out
// of the history ring. The rebuilt snapshot is private: indexed and
// evaluable like any other, but not re-inserted into the ring.
func (d *durable) reconstruct(ctx context.Context, name string, version uint64) (*Snapshot, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	compacted := func() error {
		return xerr.New(xerr.NotFound, "", "store: %q version %d predates the last checkpoint (compacted)", name, version)
	}

	ck, err := wal.ReadLatestCheckpoint(d.log.Dir())
	if err != nil {
		return nil, err
	}
	var (
		cur      *tree.Node
		curV     uint64
		exists   bool
		afterSeq uint64
		// restartable marks a tombstone state (from the checkpoint or an
		// in-log remove): a chain restart — a put at version 1, produced
		// by tombstone GC or by a reopen that dropped the tombstone — may
		// follow, sending versions back below curV. While one is
		// possible, the scan cannot exit early on curV ≥ version.
		restartable bool
	)
	if ck != nil {
		afterSeq = ck.Seq
		for _, doc := range ck.Docs {
			if doc.Name != name {
				continue
			}
			if doc.Removed {
				cur, curV, exists, restartable = nil, doc.Version, true, true
				break
			}
			// Note: doc.Version > version does NOT mean the version is
			// unservable — a post-checkpoint remove plus a chain restart
			// can make low version numbers live again. The scan decides;
			// its early exit keeps the truly-compacted case cheap.
			root, err := parseLogged(doc.XML, d.opts.MaxDepth)
			if err != nil {
				return nil, &xerr.Error{Kind: xerr.Corrupt, Pos: fmt.Sprintf("ckpt-%d:%s", ck.Seq, name),
					Msg: "store: checkpointed document does not parse", Err: err}
			}
			cur, curV, exists = root, doc.Version, true
			break
		}
	}

	// The reconstructed state is the last point the scan passes through
	// the requested version: with a chain restart the same version number
	// can occur in both the dead chain (as the tombstone) and the new
	// one, and the reachable chain wins — matching what the history ring
	// would have served.
	var (
		best        *tree.Node
		bestMatched bool
		bestRemoved bool
	)
	record := func() {
		if exists && curV == version {
			best, bestMatched, bestRemoved = cur, true, cur == nil
		}
	}
	record()

	err = wal.ReplaySegments(d.log.Dir(), afterSeq, func(rec wal.Record, pos wal.Pos) error {
		if rec.Name != name {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return xerr.Wrap(xerr.Eval, err)
		}
		switch rec.Kind {
		case wal.KindPut:
			root, err := parseLogged(rec.Doc, d.opts.MaxDepth)
			if err != nil {
				return &xerr.Error{Kind: xerr.Corrupt, Pos: pos.String(),
					Msg: fmt.Sprintf("store: logged document %q does not parse", name), Err: err}
			}
			restartable = false // a put resolves the pending restart either way
			cur, curV, exists = root, rec.Version, true
		case wal.KindUpdate:
			if !exists || cur == nil {
				return xerr.New(xerr.Corrupt, pos.String(), "store: logged update of %q over no live document", name)
			}
			c, err := d.opts.Compile(rec.Query)
			if err != nil {
				return &xerr.Error{Kind: xerr.Corrupt, Pos: pos.String(),
					Msg: fmt.Sprintf("store: logged update of %q does not compile", name), Err: err}
			}
			out, err := c.EvalContext(ctx, cur, d.opts.Method)
			if err != nil {
				return err
			}
			cur, curV = out, rec.Version
		case wal.KindRemove:
			cur, curV = nil, rec.Version
			restartable = true
		}
		record()
		if !restartable && curV >= version {
			return errReconstructed
		}
		return nil
	})
	if err != nil && !errors.Is(err, errReconstructed) {
		return nil, err
	}
	if !bestMatched {
		return nil, compacted()
	}
	if bestRemoved {
		return nil, removedAt(name, version)
	}
	root, ix, _ := tree.Freeze(best, nil)
	return &Snapshot{name: name, version: version, root: root, ix: ix}, nil
}
