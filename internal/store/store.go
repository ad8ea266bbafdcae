// Package store implements a goroutine-safe, versioned XML document
// store — the write path that turns transform queries from a query
// device into the update mechanism of a live corpus (the dual of the
// paper's central move, and the substrate the xtqd serving layer runs
// on).
//
// Named documents are held as immutable, indexed snapshots, each the
// head of a version chain (tree.Adopt / tree.Freeze). Readers obtain a
// *Snapshot via an atomic pointer load and evaluate compiled queries and
// composition plans against it with zero locking on the hot path:
// tree.EnsureIndex serves a stamped root with one atomic load, and
// nothing ever mutates a stored tree or rewrites a node's index stamp
// (stamps are written once, see internal/tree). Writers commit XQU updates
// persistently (shared structure): the update's transform query is
// evaluated over the current snapshot (structural sharing, input
// untouched), the result is adopted into the next version of the chain
// with tree.PathCopy — copying only the spine from each change to the
// root, aliasing every untouched subtree — and the new snapshot is
// published with a compare-and-swap on the per-document version chain —
// optimistic concurrency whose losers either retry (Apply) or surface a
// typed conflict error (ApplyAt).
//
// Removal is itself a committed version: Remove publishes a tombstone
// snapshot, so a commit racing with a removal loses the CAS and
// surfaces not-found instead of writing into an unreachable chain, and
// a later re-ingest continues the version chain rather than restarting
// it. Tombstones are garbage-collected by checkpointing (durable
// stores); a purely in-memory store retains them, which is the price of
// version-chain continuity.
//
// Every document keeps a small ring of recent snapshots: SnapshotAt
// serves those versions lock- and allocation-free. A store opened with
// Open (see durable.go) is additionally backed by a write-ahead log of
// logical update records, giving crash recovery, snapshot checkpoints
// and time travel to any version since the last checkpoint.
package store

import (
	"bytes"
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/plan"
	"xtq/internal/tree"
	"xtq/internal/wal"
	"xtq/internal/xerr"
)

// DefaultHistoryDepth is the per-document snapshot ring size of stores
// built without an explicit HistoryDepth.
const DefaultHistoryDepth = 8

// Snapshot is one immutable committed version of a named document.
// Snapshots are safe for unlimited concurrent readers, never change
// after publication, and remain valid (and evaluable) after newer
// versions are committed or the document is removed — a reader holding
// a handle is isolated from every later write.
type Snapshot struct {
	name    string
	version uint64
	root    *tree.Node // nil for a tombstone (the committed removal)
	ix      *tree.Index
}

// Name returns the document name the snapshot was committed under.
func (s *Snapshot) Name() string { return s.name }

// Version returns the snapshot's version: 1 for the first ingest of a
// name, incremented by every committed update, re-ingest or removal.
func (s *Snapshot) Version() uint64 { return s.version }

// Root returns the snapshot's document node. Treat the tree as strictly
// read-only: it is shared with every reader and with later versions,
// evaluators never modify their input, and an update is committed
// through Apply, which builds the next version beside this one.
func (s *Snapshot) Root() *tree.Node { return s.root }

// Index returns the snapshot's index: the head of its version chain.
func (s *Snapshot) Index() *tree.Index { return s.ix }

// deleted reports whether the snapshot is a tombstone — the committed
// form of Remove. Tombstones are never handed to readers: Snapshot and
// SnapshotAt translate them to not-found errors.
func (s *Snapshot) deleted() bool { return s.root == nil }

// Deleted reports whether the snapshot is a tombstone. Replication
// capture (CaptureAll) hands tombstones out so a follower checkpoint
// can retain them; every reader-facing path still hides them.
func (s *Snapshot) Deleted() bool { return s.deleted() }

// Open serializes the snapshot, making *Snapshot a Source: the
// streaming evaluator (which reads its input twice) can run over a
// snapshot like over a file. In-memory evaluation never goes through
// Open — the engine unwraps the tree directly. When the chain's image
// covers the root, the reader serves the image's bytes without a copy;
// otherwise the snapshot is emitted, copying whatever the image covers,
// into one buffer. Open never builds an image.
func (s *Snapshot) Open() (io.ReadCloser, error) {
	if b := s.ix.LoadImage().Subtree(s.root); b != nil {
		return io.NopCloser(bytes.NewReader(b)), nil
	}
	var buf bytes.Buffer
	s.WriteXML(&buf)
	return io.NopCloser(&buf), nil
}

// WriteXML serializes the snapshot to w, copying what the chain's image
// covers when one exists. It never builds an image.
func (s *Snapshot) WriteXML(w io.Writer) error { return s.root.WriteXML(w) }

// Image notes a read of the snapshot's version chain and returns the
// chain's serialized image (see tree.Image), building it from this
// snapshot on the chain's second read of any kind (tree.Index.ReadImage):
// a document read once never holds one. A read is a transform query or a
// read of a maintained view over the chain. Every emitter copies from
// the image once it exists, whoever built it. The build also publishes
// the chain's subtree label masks, which live beside the image, when
// the chain has none yet (see ReadMasks). Only the calls that build an
// image are counted on the registry.
func (s *Snapshot) Image() *tree.Image {
	img, built := s.ix.ReadImage()
	if built {
		mImageBuilds.Inc()
		mImageBytes.Add(uint64(img.Len()))
	}
	return img
}

// ReadMasks notes a read of the snapshot's version chain that copies
// none of its bytes — a user query composed with a view — and builds the
// chain's subtree label masks from this snapshot on the chain's second
// read of any kind (tree.Index.ReadMasks), never its image: the masks
// prune the composed walk, while an image would cost the memory of a
// serialization such a read never copies. Only the calls that build
// masks are counted on the registry.
func (s *Snapshot) ReadMasks() {
	if s.ix.ReadMasks() {
		mMaskBuilds.Inc()
	}
}

// NumNodes returns the number of live nodes in the snapshot — the count
// reachable from its root. Along a path-copied version chain this is
// smaller than the chain's ordinal-space width (replaced nodes leave
// holes until compaction renumbers).
func (s *Snapshot) NumNodes() int {
	if s.ix == nil {
		return 0
	}
	return s.ix.Live
}

// Commit describes one successful write: the snapshot it produced and
// what the persistent (shared-structure) adoption cost.
type Commit struct {
	// Version of the snapshot the write produced.
	Version uint64
	// CopiedNodes and CopiedBytes are the materialization cost of the
	// commit: the nodes newly copied (for a path-copied update, only
	// the spine from each change to the root plus inserted content) and
	// the heap bytes they retain (node structs, attribute and child
	// slices). Zero for a no-op update (nothing matched: the new version
	// shares the predecessor's whole tree) and for adopted ingests.
	CopiedNodes int
	CopiedBytes int64
	// SharedWithPrev counts result nodes the new version kept from the
	// previous snapshot by reference — the "touches only the relevant
	// region" number. A no-op update shares the whole tree.
	SharedWithPrev int
}

// docState is the per-name version chain head plus the recent-history
// ring. The head pointer is the whole synchronization story of the read
// path: Store.Snapshot is one map read plus one atomic load, and a
// published *Snapshot is immutable. The ring serves SnapshotAt for
// recent versions the same way — slot version % len, validated by the
// version stamp, so an overwritten or raced slot is a clean miss, never
// a wrong answer.
type docState struct {
	cur atomic.Pointer[Snapshot]
	// wmu serializes writers of this document in a durable store, so a
	// WAL record's version is decided before the record is appended and
	// the following CAS cannot lose. In-memory stores never lock it:
	// their writers race on the CAS as before.
	wmu  sync.Mutex
	hist []atomic.Pointer[Snapshot]
}

// publish installs s as the chain head (the caller has won or owns the
// right to advance the chain) and retains it in the history ring.
func (ds *docState) pushHist(s *Snapshot) {
	if n := uint64(len(ds.hist)); n > 0 {
		ds.hist[s.version%n].Store(s)
	}
}

// clearHist drops every retained snapshot, unpinning the trees. Called
// on removal: a removed document's resident history dies with it.
func (ds *docState) clearHist() {
	for i := range ds.hist {
		ds.hist[i].Store(nil)
	}
}

// ringAt returns the retained snapshot of exactly the given version, or
// nil. Lock- and allocation-free.
func (ds *docState) ringAt(version uint64) *Snapshot {
	n := uint64(len(ds.hist))
	if n == 0 {
		return nil
	}
	if s := ds.hist[version%n].Load(); s != nil && s.version == version {
		return s
	}
	return nil
}

// Store is a named collection of versioned documents. The zero value is
// not usable; construct with New (in-memory) or Open (durable). A Store
// is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	docs map[string]*docState

	histDepth int
	dur       *durable // nil for a purely in-memory store

	// follower marks a read-only replica: every write path fails typed
	// until Promote clears it. The replication applier (ApplyLogged)
	// bypasses the flag — it is how a follower's state advances.
	follower atomic.Bool
	// repl is the replica's replay position in the primary's log, for
	// observability; maintained by the replication layer.
	repl atomic.Pointer[wal.Pos]

	// hook is the commit hook (see SetCommitHook); nil when none is
	// installed.
	hook atomic.Pointer[func(CommitEvent)]
}

// New returns an empty in-memory store retaining DefaultHistoryDepth
// recent snapshots per document.
func New() *Store {
	return NewWithHistory(DefaultHistoryDepth)
}

// NewWithHistory returns an empty in-memory store retaining depth
// recent snapshots per document for SnapshotAt; depth 0 disables the
// ring.
func NewWithHistory(depth int) *Store {
	if depth < 0 {
		depth = 0
	}
	return &Store{docs: make(map[string]*docState), histDepth: depth}
}

func notFound(name string) error {
	return xerr.New(xerr.NotFound, "", "store: no document %q", name)
}

func conflict(name string, base, cur uint64) error {
	return xerr.New(xerr.Conflict, "", "store: %q version %d superseded (current %d)", name, base, cur)
}

// lookup returns the state of name, or nil.
func (st *Store) lookup(name string) *docState {
	st.mu.RLock()
	ds := st.docs[name]
	st.mu.RUnlock()
	return ds
}

// Snapshot returns the current committed version of name. The fast path
// is one read-locked map access and one atomic load; the returned
// handle is immune to later writes.
func (st *Store) Snapshot(name string) (*Snapshot, error) {
	ds := st.lookup(name)
	if ds == nil {
		return nil, notFound(name)
	}
	snap := ds.cur.Load()
	if snap == nil || snap.deleted() {
		return nil, notFound(name)
	}
	return snap, nil
}

// SnapshotAt returns the committed snapshot of name at exactly the
// given version. Recent versions — the current head and the
// per-document history ring — are served lock- and allocation-free with
// zero log reads. On a durable store, older versions still covered by
// the log are reconstructed by replaying the update records from the
// last checkpoint (ctx bounds that re-evaluation); versions compacted
// away, never committed, or removed at that version surface as typed
// not-found errors.
func (st *Store) SnapshotAt(ctx context.Context, name string, version uint64) (*Snapshot, error) {
	ds := st.lookup(name)
	if ds == nil {
		return nil, notFound(name)
	}
	cur := ds.cur.Load()
	if cur == nil {
		return nil, notFound(name)
	}
	if version == 0 || version > cur.version {
		return nil, xerr.New(xerr.NotFound, "", "store: %q has no version %d (current %d)", name, version, cur.version)
	}
	if version == cur.version {
		if cur.deleted() {
			return nil, removedAt(name, version)
		}
		return cur, nil
	}
	if s := ds.ringAt(version); s != nil {
		if s.deleted() {
			return nil, removedAt(name, version)
		}
		return s, nil
	}
	if st.dur == nil {
		return nil, xerr.New(xerr.NotFound, "", "store: %q version %d is no longer retained", name, version)
	}
	return st.dur.reconstruct(ctx, name, version)
}

func removedAt(name string, version uint64) error {
	return xerr.New(xerr.NotFound, "", "store: %q was removed at version %d", name, version)
}

// HistoryEntry describes one servable version of a document.
type HistoryEntry struct {
	// Version of the snapshot.
	Version uint64
	// Nodes in the snapshot (0 for a tombstone).
	Nodes int
	// Deleted marks the tombstone a Remove committed.
	Deleted bool
	// Resident marks versions served memory-only (the current head and
	// the history ring) — SnapshotAt on them reads no log.
	Resident bool
}

// History reports the versions of name that SnapshotAt can serve:
// the resident entries (current head and history ring, newest first)
// and the floor — the oldest version reconstructable at all. On an
// in-memory store the floor is the oldest resident version; on a
// durable store it extends back to the last checkpoint.
func (st *Store) History(name string) (entries []HistoryEntry, floor uint64, err error) {
	ds := st.lookup(name)
	if ds == nil {
		return nil, 0, notFound(name)
	}
	cur := ds.cur.Load()
	if cur == nil || cur.deleted() {
		// A removed document has no servable versions (its resident
		// history died with it), so its history is not-found — the same
		// answer every other read path gives.
		return nil, 0, notFound(name)
	}
	add := func(s *Snapshot) {
		for _, e := range entries {
			if e.Version == s.version {
				return
			}
		}
		entries = append(entries, HistoryEntry{
			Version:  s.version,
			Nodes:    s.NumNodes(),
			Deleted:  s.deleted(),
			Resident: true,
		})
	}
	add(cur)
	for i := range ds.hist {
		if s := ds.hist[i].Load(); s != nil && s.version <= cur.version {
			add(s)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Version > entries[j].Version })

	floor = entries[len(entries)-1].Version
	if st.dur != nil {
		if f, ok := st.dur.floorOf(name); ok && f < floor {
			floor = f
		}
	}
	return entries, floor, nil
}

// Names returns the stored document names, unordered. Removed documents
// (tombstones awaiting checkpoint GC) are not listed.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.docs))
	for name, ds := range st.docs {
		if s := ds.cur.Load(); s != nil && !s.deleted() {
			out = append(out, name)
		}
	}
	return out
}

// Len returns the number of stored (non-removed) documents.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, ds := range st.docs {
		if s := ds.cur.Load(); s != nil && !s.deleted() {
			n++
		}
	}
	return n
}

// Remove deletes name, reporting whether it existed. The removal is a
// committed version: a tombstone snapshot is published on the chain (and
// logged, when durable), so readers holding handles are unaffected, an
// optimistic commit racing with the removal fails with a not-found error
// rather than committing into an unreachable chain, and a later Put of
// the same name continues the version chain. The history ring is
// dropped with the document — removal forgets resident history, so the
// removed trees become collectible (a durable store can still
// reconstruct pre-removal versions from the log until the next
// checkpoint). Tombstones themselves are small and are garbage-collected
// by the next checkpoint on durable stores.
func (st *Store) Remove(name string) (bool, error) {
	if st.follower.Load() {
		return false, readOnly()
	}
	ds := st.lookup(name)
	if ds == nil {
		return false, nil
	}
	if st.dur != nil {
		ds = st.lockWriter(name, ds)
		defer ds.wmu.Unlock()
	}
	start := time.Now()
	for {
		old := ds.cur.Load()
		if old == nil || old.deleted() {
			return false, nil
		}
		next := &Snapshot{name: name, version: old.version + 1}
		ev := CommitEvent{Name: name, Kind: CommitRemove, Version: next.version, Prev: old.version, Snap: next, PrevSnap: old}
		if st.dur != nil {
			err := st.commitDurable(ds, old, next, func() error {
				return st.dur.appendRemove(name, next.version)
			})
			if err != nil {
				return false, err
			}
			ds.clearHist()
			if hook := st.hookFn(); hook != nil {
				hook(ev)
			}
			observeCommit("remove", time.Since(start), Commit{Version: next.version})
			return true, nil
		}
		if hook := st.hookFn(); hook != nil {
			ds.wmu.Lock()
			if ds.cur.CompareAndSwap(old, next) {
				ds.clearHist()
				hook(ev)
				ds.wmu.Unlock()
				observeCommit("remove", time.Since(start), Commit{Version: next.version})
				return true, nil
			}
			ds.wmu.Unlock()
			mCASRetries.Inc()
			continue
		}
		if ds.cur.CompareAndSwap(old, next) {
			ds.clearHist()
			observeCommit("remove", time.Since(start), Commit{Version: next.version})
			return true, nil
		}
		mCASRetries.Inc()
	}
}

// state returns the docState for name, creating it if absent.
func (st *Store) state(name string) *docState {
	if ds := st.lookup(name); ds != nil {
		return ds
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if ds := st.docs[name]; ds != nil {
		return ds
	}
	ds := &docState{}
	if st.histDepth > 0 {
		ds.hist = make([]atomic.Pointer[Snapshot], st.histDepth)
	}
	st.docs[name] = ds
	return ds
}

// lockWriter acquires the durable writer lock for name: the
// per-document wmu serializes this document's writers, so the WAL
// record's version is decided before the record is appended and the
// publishing CAS cannot lose. It revalidates that ds is still the live
// state: checkpoint GC can retire a tombstoned docState, in which case
// the writer must restart on the fresh one or the commit would publish
// into an unreachable chain while its record survives in the log.
func (st *Store) lockWriter(name string, ds *docState) *docState {
	for {
		ds.wmu.Lock()
		if st.lookup(name) == ds {
			return ds
		}
		ds.wmu.Unlock()
		ds = st.state(name)
	}
}

// commitDurable performs the logged half of a durable commit: append
// the record, publish the snapshot, retain it in the ring — all under
// the checkpoint gate, so no append→publish pair straddles a segment
// rotation (a record frozen into a covered segment is always published,
// and therefore captured, before the segment can be deleted). The gate
// is deliberately NOT held during query evaluation: a pending
// checkpoint stalls writers only for this short section plus the
// rotation fsync. The caller holds ds.wmu, which is what guarantees the
// CAS cannot lose.
func (st *Store) commitDurable(ds *docState, old, next *Snapshot, appendRec func() error) error {
	st.dur.gate.RLock()
	defer st.dur.gate.RUnlock()
	if err := appendRec(); err != nil {
		return err
	}
	if !ds.cur.CompareAndSwap(old, next) {
		// Unreachable while wmu serializes this document's writers; fail
		// loudly rather than diverge memory from the log.
		return xerr.New(xerr.Eval, "", "store: internal: durable publish lost a race under the writer lock")
	}
	ds.pushHist(next)
	return nil
}

// Put commits doc as the next version of name, creating the document at
// version 1 when the name is new. When adopt is true the store takes
// ownership of doc directly — the caller must hand over a private,
// fully-built tree (e.g. one it just parsed) and never touch it again;
// tree.Adopt takes it in place when its own index owns it whole and
// copies it otherwise (see Adopt). When adopt is false doc is
// snapshot-copied, so the caller keeps ownership of its tree.
func (st *Store) Put(name string, doc *tree.Node, adopt bool) (*Snapshot, Commit, error) {
	if doc == nil {
		return nil, Commit{}, xerr.New(xerr.Eval, "", "store: nil document for %q", name)
	}
	if st.follower.Load() {
		return nil, Commit{}, readOnly()
	}
	start := time.Now()
	var (
		root *tree.Node
		ix   *tree.Index
		cs   tree.CopyStats
	)
	if adopt {
		root, ix, cs = tree.Adopt(doc)
	} else {
		// The caller keeps its tree: copy it. Its index, when it has one
		// (a parsed document, another snapshot), seeds the symbol table,
		// so its labels keep their ids and the copy walk skips the
		// intern lookups.
		root, ix, cs = tree.Freeze(doc, tree.IndexOf(doc))
	}
	ds := st.state(name)
	if st.dur != nil {
		ds = st.lockWriter(name, ds)
		defer ds.wmu.Unlock()
	}
	for {
		old := ds.cur.Load()
		next := &Snapshot{name: name, version: 1, root: root, ix: ix}
		if old != nil {
			next.version = old.version + 1
		}
		com := Commit{Version: next.version, CopiedNodes: cs.Nodes, CopiedBytes: cs.Bytes}
		ev := CommitEvent{Name: name, Kind: CommitPut, Version: next.version, Snap: next, PrevSnap: old}
		if old != nil {
			ev.Prev = old.version
		}
		if st.dur != nil {
			err := st.commitDurable(ds, old, next, func() error {
				return st.dur.appendPut(name, next.version, root, old == nil)
			})
			if err != nil {
				return nil, Commit{}, err
			}
			if hook := st.hookFn(); hook != nil {
				hook(ev) // still under ds.wmu: events stay in version order
			}
			observeCommit("put", time.Since(start), com)
			return next, com, nil
		}
		if hook := st.hookFn(); hook != nil {
			// Publish under the writer lock so the hook observes commits
			// in version order; losers unlock and retry on the new head.
			ds.wmu.Lock()
			if ds.cur.CompareAndSwap(old, next) {
				ds.pushHist(next)
				hook(ev)
				ds.wmu.Unlock()
				observeCommit("put", time.Since(start), com)
				return next, com, nil
			}
			ds.wmu.Unlock()
			mCASRetries.Inc()
			continue
		}
		if ds.cur.CompareAndSwap(old, next) {
			ds.pushHist(next)
			observeCommit("put", time.Since(start), com)
			return next, com, nil
		}
		mCASRetries.Inc()
	}
}

// Apply commits the compiled update query c against the current version
// of name: the transform is evaluated copy-on-write over the snapshot
// (which concurrent readers keep using, untouched), the result is
// path-copied into the next snapshot of the chain, and the chain head
// is advanced by CAS. A writer that loses the race re-evaluates against
// the winner's snapshot and tries again — Apply itself never returns a
// conflict. Use ApplyAt for compare-and-set semantics against a version
// the caller has seen.
func (st *Store) Apply(ctx context.Context, name string, c *core.Compiled, m core.Method) (*Snapshot, Commit, error) {
	return st.apply(ctx, name, c, m, 0)
}

// ApplyAt is Apply with optimistic concurrency surfaced: the commit
// only succeeds if the current version still equals base; otherwise a
// typed error of kind Conflict reports the version that superseded it,
// and the caller decides whether to re-read and retry.
func (st *Store) ApplyAt(ctx context.Context, name string, c *core.Compiled, m core.Method, base uint64) (*Snapshot, Commit, error) {
	if base == 0 {
		return nil, Commit{}, xerr.New(xerr.Conflict, "", "store: ApplyAt requires a base version (got 0)")
	}
	return st.apply(ctx, name, c, m, base)
}

func (st *Store) apply(ctx context.Context, name string, c *core.Compiled, m core.Method, base uint64) (*Snapshot, Commit, error) {
	if st.follower.Load() {
		return nil, Commit{}, readOnly()
	}
	ds := st.lookup(name)
	if ds == nil {
		return nil, Commit{}, notFound(name)
	}
	if st.dur != nil {
		ds = st.lockWriter(name, ds)
		defer ds.wmu.Unlock()
	}
	start := time.Now()
	retries := 0
	tr := obs.TraceFrom(ctx)
	// done records the successful commit on the registry and, when the
	// request carries a trace, fills its commit section — the one source
	// the serving layer's commit JSON and EXPLAIN both read.
	done := func(com Commit, noop bool) {
		observeCommit("update", time.Since(start), com)
		if tr != nil {
			tr.SetCommit(&obs.CommitTrace{
				Kind: "update", Version: com.Version, NoOp: noop,
				CopiedNodes: com.CopiedNodes, CopiedBytes: com.CopiedBytes,
				SharedWithPrev: com.SharedWithPrev,
				Retries:        retries,
			})
		}
	}
	em := core.Resolve(m)
	if m == core.MethodAuto {
		dec := plan.Choose(c, nil)
		if tr != nil {
			tr.SetPlan(&obs.PlanTrace{Method: string(dec.Method), Auto: true, Reason: dec.Reason})
		}
	}
	if tr != nil {
		tr.SetMethod(string(em))
	}
	for {
		snap := ds.cur.Load()
		if snap == nil || snap.deleted() {
			return nil, Commit{}, notFound(name)
		}
		if base != 0 && snap.version != base {
			return nil, Commit{}, conflict(name, base, snap.version)
		}

		evalStart := time.Now()
		out, err := c.EvalContext(ctx, snap.root, em)
		if err != nil {
			return nil, Commit{}, err
		}
		if tr != nil {
			tr.AddEval(time.Since(evalStart))
			tr.SetDocNodes(snap.NumNodes())
		}

		var (
			next = &Snapshot{name: name, version: snap.version + 1}
			com  = Commit{Version: snap.version + 1}
		)
		// A no-op update commits zero-copy: the new version shares the old
		// tree (snapshots are immutable, so sharing root and index
		// across versions is safe). topDown and twoPass signal "nothing
		// matched" by returning the input itself; the other evaluators
		// always build a fresh root, so for them a structural comparison
		// (early-exit on the first difference, cheaper than the copy it
		// saves) keeps the zero-copy semantics method-independent.
		noop := out == snap.root
		if !noop && em != core.MethodTopDown && em != core.MethodTwoPass {
			noop = tree.Equal(out, snap.root)
		}
		if noop {
			next.root, next.ix = snap.root, snap.ix
			// Nothing was copied; the stats still say what was shared —
			// the whole previous tree.
			com.SharedWithPrev = snap.NumNodes()
		} else {
			var cs tree.CopyStats
			next.root, next.ix, cs = tree.PathCopy(out, snap.ix)
			com.CopiedNodes, com.CopiedBytes = cs.Nodes, cs.Bytes
			com.SharedWithPrev = cs.SharedWithBase
		}

		ev := CommitEvent{
			Name: name, Kind: CommitUpdate,
			Version: next.version, Prev: snap.version,
			Snap: next, PrevSnap: snap,
			Update: c, NoOp: noop,
		}
		if !noop {
			ev.Bridge = out
		}
		if st.dur != nil {
			err := st.commitDurable(ds, snap, next, func() error {
				return st.dur.appendUpdate(name, snap.version, next.version, c)
			})
			if err != nil {
				return nil, Commit{}, err
			}
			if hook := st.hookFn(); hook != nil {
				hook(ev) // still under ds.wmu: events stay in version order
			}
			done(com, noop)
			return next, com, nil
		}

		swapped := false
		if hook := st.hookFn(); hook != nil {
			// Publish under the writer lock so the hook observes commits
			// in version order; evaluation stayed outside the lock.
			ds.wmu.Lock()
			if swapped = ds.cur.CompareAndSwap(snap, next); swapped {
				ds.pushHist(next)
				hook(ev)
			}
			ds.wmu.Unlock()
		} else if swapped = ds.cur.CompareAndSwap(snap, next); swapped {
			ds.pushHist(next)
		}
		if !swapped {
			// Another writer committed first (in-memory stores only: a
			// durable commit holds the writer lock). With CAS semantics
			// that is the caller's conflict; without, re-evaluate on the
			// new head.
			if base != 0 {
				cur := ds.cur.Load()
				var curV uint64
				if cur != nil {
					curV = cur.version
				}
				return nil, Commit{}, conflict(name, base, curV)
			}
			retries++
			mCASRetries.Inc()
			continue
		}
		done(com, noop)
		return next, com, nil
	}
}
