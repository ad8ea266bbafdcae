package xtq

import (
	"context"
	"sort"
	"strconv"
	"sync"

	"xtq/internal/core"
	"xtq/internal/ivm"
	"xtq/internal/store"
	"xtq/internal/tree"
	"xtq/internal/wal"
)

// Snapshot is one immutable committed version of a stored document: a
// sealed, fully-indexed tree behind an atomic version chain. Any number
// of goroutines evaluate Prepared queries and PreparedViews against a
// Snapshot concurrently with zero locking on the hot path — a Snapshot
// is a Source, so it goes wherever a document goes:
//
//	snap, err := st.Snapshot("parts")
//	res, err := prepared.Eval(ctx, snap)        // lock-free, in-memory
//	res, err := prepared.EvalStream(ctx, snap, sink) // O(depth) streaming
//
// A handle stays valid (and evaluable) after newer versions commit and
// after the document is removed: readers are fully isolated from
// writers.
type Snapshot = store.Snapshot

// Commit reports what one store write did: the version it produced and
// the copy-on-write cost it paid (zero copied nodes for adopted ingests
// and for updates that matched nothing).
type Commit = store.Commit

// HistoryEntry describes one servable version of a stored document —
// see Store.History.
type HistoryEntry = store.HistoryEntry

// CheckpointStats reports the checkpoint/compaction activity of a
// durable store — see Store.Checkpoint and Store.CheckpointStats.
type CheckpointStats = store.CheckpointStats

// FsyncPolicy selects when a durable store's committed records are
// forced to stable storage — the commit-latency/durability trade-off of
// OpenStore.
type FsyncPolicy = wal.FsyncPolicy

// Fsync policies for WithFsync.
const (
	// FsyncAlways fsyncs before a commit returns (group-committed across
	// concurrent writers): state survives an OS crash.
	FsyncAlways = wal.FsyncAlways
	// FsyncInterval fsyncs on a background interval: a commit survives a
	// process kill immediately, an OS crash may lose the last interval.
	FsyncInterval = wal.FsyncInterval
	// FsyncNone leaves fsync to rotation, checkpoints and Close: fastest,
	// survives a process kill, an OS crash loses the unsynced tail.
	FsyncNone = wal.FsyncNone
)

// ParseFsyncPolicy parses "always", "interval" or "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	p, err := wal.ParseFsyncPolicy(s)
	return p, classify(err, KindEval)
}

// Store is a goroutine-safe, versioned, in-memory XML document store —
// update syntax as the write path of a live corpus. Documents are held
// as immutable indexed snapshots; writers commit XQU update queries
// copy-on-write with optimistic versioning, readers evaluate against
// snapshot handles without locks:
//
//	st := xtq.NewStore(nil)
//	_, _, err := st.Put(ctx, "parts", xtq.FileSource("parts.xml"))
//	snap, com, err := st.Apply(ctx, "parts",
//	    `transform copy $a := doc("parts") modify do delete $a//price return $a`)
//	// com.Version == 2; version-1 readers are untouched.
//
// Apply always commits against the latest version (losing a race means
// re-evaluating on the winner's snapshot); ApplyAt commits only if the
// version the caller saw is still current, returning a KindConflict
// error otherwise — HTTP If-Match semantics, which cmd/xtqd exposes
// directly. Named view stacks registered with RegisterView serve
// per-principal virtual views of any stored document.
type Store struct {
	eng *Engine
	st  *store.Store

	// mgr maintains materializations of registered views across
	// commits; hub fans commits out to Watch subscribers. Both are
	// driven by the store's commit hook (see wireIVM).
	mgr *ivm.Manager
	hub *ivm.Hub

	vmu   sync.RWMutex
	views map[string]*View
}

// NewStore builds an in-memory store on top of eng, which compiles the
// update queries Apply receives (sharing the engine's query cache) and
// parses ingested sources. A nil eng uses a fresh default Engine. The
// store dies with the process; OpenStore builds one that does not.
func NewStore(eng *Engine) *Store {
	if eng == nil {
		eng = NewEngine()
	}
	s := &Store{eng: eng, st: store.New(), views: make(map[string]*View)}
	s.wireIVM()
	return s
}

// storeConfig collects the OpenStore options.
type storeConfig struct {
	opts store.Options
}

// StoreOption configures OpenStore.
type StoreOption func(*storeConfig)

// WithFsync selects the durability policy commits honour before they
// return. Default FsyncAlways.
func WithFsync(p FsyncPolicy) StoreOption {
	return func(c *storeConfig) { c.opts.Fsync = p }
}

// WithSegmentBytes sets the log segment rotation size. Default 64 MiB.
func WithSegmentBytes(n int64) StoreOption {
	return func(c *storeConfig) { c.opts.SegmentBytes = n }
}

// WithCheckpointEvery enables the background checkpointer: a checkpoint
// (snapshot capture + log compaction + tombstone GC) runs whenever the
// log has grown by n bytes. Zero (the default) leaves checkpointing to
// explicit Store.Checkpoint calls.
func WithCheckpointEvery(n int64) StoreOption {
	return func(c *storeConfig) { c.opts.CheckpointEvery = n }
}

// OpenStore opens (creating if necessary) a durable store rooted at
// dir: a crash-safe Store whose every successful Put/Apply/ApplyAt/
// Remove is appended to a write-ahead log of logical update records
// before it is published. Because commits are already XQU update
// queries, the log stores their canonical text and recovery replays
// them through eng.Prepare and the same copy-on-write commit path that
// executed them live, verifying the version chain as it goes — the
// paper's uniform read/write syntax doubling as its own durability
// format. Corrupt logs surface as KindCorrupt errors naming the segment
// file and byte offset.
//
// A nil eng uses a fresh default Engine. Close the store when done: it
// stops the background checkpointer and syncs the log.
func OpenStore(dir string, eng *Engine, options ...StoreOption) (*Store, error) {
	if eng == nil {
		eng = NewEngine()
	}
	cfg := storeConfig{opts: store.Options{
		Compile: func(src string) (*core.Compiled, error) {
			p, err := eng.Prepare(src)
			if err != nil {
				return nil, err
			}
			return p.compiled, nil
		},
		Method:   eng.method,
		MaxDepth: eng.maxDepth,
	}}
	for _, o := range options {
		o(&cfg)
	}
	st, err := store.Open(dir, cfg.opts)
	if err != nil {
		return nil, classify(err, KindIO)
	}
	s := &Store{eng: eng, st: st, views: make(map[string]*View)}
	// Recovery already ran hook-free; materializations build lazily on
	// first read, so replay pays no view-maintenance cost.
	s.wireIVM()
	return s, nil
}

// Durable reports whether the store is backed by a write-ahead log.
func (s *Store) Durable() bool { return s.st.Durable() }

// Close stops the background checkpointer and syncs and closes the
// write-ahead log. On an in-memory store it is a no-op. Commits issued
// after Close fail.
func (s *Store) Close() error { return classify(s.st.Close(), KindIO) }

// Engine returns the engine the store compiles and parses with.
func (s *Store) Engine() *Engine { return s.eng }

// Put parses src and commits it as the next version of name (version 1
// when the name is new). A src the caller may still hold — an
// already-parsed *Node or a *Snapshot — is deep-copied so the store
// never aliases caller-visible state; sources the store parses itself
// (files, bytes, readers) are adopted without a copy.
func (s *Store) Put(ctx context.Context, name string, src Source) (*Snapshot, Commit, error) {
	if n, ok := src.(*Node); ok {
		snap, com, err := s.st.Put(name, n, false)
		return snap, com, classify(err, KindEval)
	}
	// A *Snapshot source needs no branch of its own: parse unwraps it to
	// its root, which already heads a version chain, so tree.Adopt
	// copies it (seeding the symbol table from its index).
	doc, err := s.eng.parse(ctx, src)
	if err != nil {
		return nil, Commit{}, err
	}
	snap, com, err := s.st.Put(name, doc, true)
	return snap, com, classify(err, KindEval)
}

// Snapshot returns the current committed version of name — one
// read-locked map access plus one atomic load — or a KindNotFound
// error. The handle is immune to every later write.
func (s *Store) Snapshot(name string) (*Snapshot, error) {
	snap, err := s.st.Snapshot(name)
	return snap, classify(err, KindNotFound)
}

// SnapshotAt returns the committed snapshot of name at exactly version
// — time travel. The current head and the recent-history ring are
// served lock- and allocation-free with zero log reads; on a durable
// store, older versions still covered by the log are reconstructed by
// replaying the logged update queries from the last checkpoint (ctx
// bounds the re-evaluation). Versions never committed, compacted away,
// or removed at that version are KindNotFound.
func (s *Store) SnapshotAt(ctx context.Context, name string, version uint64) (*Snapshot, error) {
	snap, err := s.st.SnapshotAt(ctx, name, version)
	return snap, classify(err, KindNotFound)
}

// History reports the versions of name that SnapshotAt can serve: the
// memory-resident entries (newest first) and the floor — the oldest
// version reconstructable at all (on a durable store, back to the last
// checkpoint).
func (s *Store) History(name string) (entries []HistoryEntry, floor uint64, err error) {
	entries, floor, err = s.st.History(name)
	return entries, floor, classify(err, KindNotFound)
}

// Checkpoint captures every live document into a checkpoint file,
// compacts the log segments it covers and garbage-collects removed
// documents. Only meaningful on a durable store (KindEval error
// otherwise); the background checkpointer (WithCheckpointEvery) calls
// the same machinery.
func (s *Store) Checkpoint(ctx context.Context) (CheckpointStats, error) {
	stats, err := s.st.Checkpoint(ctx)
	return stats, classify(err, KindIO)
}

// CheckpointStats reports checkpoint and compaction activity since the
// store was opened (zeros for an in-memory store).
func (s *Store) CheckpointStats() CheckpointStats { return s.st.CheckpointStats() }

// Apply compiles updateQuery through the engine's query cache and
// commits it against the current version of name: the update is
// evaluated copy-on-write over the snapshot (readers keep using it,
// untouched) and the result becomes the next version. A writer losing
// the optimistic race retries against the winner's snapshot; Apply
// never returns a conflict.
func (s *Store) Apply(ctx context.Context, name, updateQuery string) (*Snapshot, Commit, error) {
	p, err := s.eng.Prepare(updateQuery)
	if err != nil {
		return nil, Commit{}, err
	}
	snap, com, err := s.st.Apply(ctx, name, p.compiled, s.eng.method)
	return snap, com, classify(err, KindEval)
}

// ApplyAt is Apply with compare-and-set semantics: the commit succeeds
// only if the current version still equals base, and returns a
// KindConflict error naming the superseding version otherwise. It is
// the primitive behind xtqd's If-Match conditional updates.
func (s *Store) ApplyAt(ctx context.Context, name, updateQuery string, base uint64) (*Snapshot, Commit, error) {
	p, err := s.eng.Prepare(updateQuery)
	if err != nil {
		return nil, Commit{}, err
	}
	snap, com, err := s.st.ApplyAt(ctx, name, p.compiled, s.eng.method, base)
	return snap, com, classify(err, KindEval)
}

// Remove deletes name, reporting whether it existed. The removal is a
// committed version (a tombstone on the chain — and a logged record,
// when durable): held snapshot handles remain valid, a commit racing
// with the removal fails with KindNotFound instead of writing into an
// unreachable chain, and a later Put of the same name continues the
// version chain. Durable stores garbage-collect tombstones at the next
// checkpoint. The error is non-nil only on a durable store whose log
// append failed.
func (s *Store) Remove(name string) (bool, error) {
	ok, err := s.st.Remove(name)
	return ok, classify(err, KindIO)
}

// Names returns the stored document names, sorted.
func (s *Store) Names() []string {
	names := s.st.Names()
	sort.Strings(names)
	return names
}

// DerivedBytes returns the bytes of derived state — chain images, label
// masks and recorded transform answers — that the store's version chains
// and its maintained views' chains hold now, by kind ("image", "masks",
// "answers"). Each chain holds at most about twice its serialization
// plus 8 B per node; a chain the store no longer holds (a removed
// document, a version out of the history ring) is not counted.
func (s *Store) DerivedBytes() map[string]int64 {
	var a tree.Account
	s.st.Account(&a)
	s.mgr.Account(&a)
	out := make(map[string]int64, len(a.Bytes))
	for k, n := range a.Bytes {
		out[tree.DerivedKinds[k]] = n
	}
	return out
}

// Len returns the number of stored documents.
func (s *Store) Len() int { return s.st.Len() }

// RegisterView registers a named stack of transform queries (innermost
// first, as Engine.View) servable over any stored document —
// per-principal security views over one shared corpus. Re-registering a
// name replaces the stack. The returned View is also usable directly.
//
// The view is maintained lazily: its materialization builds on the
// first ViewAt read of a current snapshot and is then kept current
// across commits — delta-updated when possible, version-bumped for free
// when impact analysis proves a commit cannot affect it.
// RegisterMaterializedView maintains eagerly instead.
func (s *Store) RegisterView(name string, transformSrcs ...string) (*View, error) {
	return s.registerView(name, false, transformSrcs...)
}

// RegisterMaterializedView is RegisterView with eager maintenance: the
// materialization is (re)built on every commit that may affect it, so
// reads always hit. Prefer it for hot views; lazy registration avoids
// the commit-path work for views that are rarely read.
func (s *Store) RegisterMaterializedView(name string, transformSrcs ...string) (*View, error) {
	return s.registerView(name, true, transformSrcs...)
}

func (s *Store) registerView(name string, eager bool, transformSrcs ...string) (*View, error) {
	v, err := s.eng.View(transformSrcs...)
	if err != nil {
		return nil, err
	}
	layers := make([]*core.Compiled, len(v.stack))
	for i, p := range v.stack {
		layers[i] = p.compiled
	}
	s.vmu.Lock()
	s.views[name] = v
	// The registry update and the invalidation of existing
	// materializations are atomic under the view lock: no reader can
	// observe the new definition served from a stale tree.
	s.mgr.SetView(name, layers, eager)
	s.vmu.Unlock()
	s.publishViewsChanged()
	return v, nil
}

// publishViewsChanged tells every document's change feed that the view
// registry mutated: the documents themselves are unchanged (the event
// carries the current version), but compositions over them may differ.
func (s *Store) publishViewsChanged() {
	for _, name := range s.st.Names() {
		if v, ok := s.st.HeadVersion(name); ok {
			s.hub.Publish(Event{Doc: name, Version: v, ETag: eventETag(v), ViewsChanged: true})
		}
	}
}

// LookupView returns the registered view stack named name, or a
// KindNotFound error.
func (s *Store) LookupView(name string) (*View, error) {
	s.vmu.RLock()
	v := s.views[name]
	s.vmu.RUnlock()
	if v == nil {
		return nil, &Error{Kind: KindNotFound, Msg: "xtq: no view " + strconv.Quote(name)}
	}
	return v, nil
}

// RemoveView unregisters name, reporting whether it existed. Its
// materializations are dropped atomically with the registry update and
// every document's change feed receives a ViewsChanged event.
func (s *Store) RemoveView(name string) bool {
	s.vmu.Lock()
	_, ok := s.views[name]
	delete(s.views, name)
	s.mgr.RemoveView(name)
	s.vmu.Unlock()
	if ok {
		s.publishViewsChanged()
	}
	return ok
}

// ViewNames returns the registered view names, sorted.
func (s *Store) ViewNames() []string {
	s.vmu.RLock()
	out := make([]string, 0, len(s.views))
	for name := range s.views {
		out = append(out, name)
	}
	s.vmu.RUnlock()
	sort.Strings(out)
	return out
}
