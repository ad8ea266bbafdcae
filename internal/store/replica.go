package store

// The replication surface of the store: what a follower needs to be a
// byte-faithful replica of a primary. A follower store is in-memory and
// read-only; its state advances only through ApplyLogged, which replays
// the primary's logical log records through the exact recovery machinery
// of durable.go — same chain verification, same typed Corrupt errors
// naming the primary's segment and offset on divergence. Promotion
// simply clears the read-only flag: the replica's chains are then the
// authoritative ones and normal writes continue them.

import (
	"fmt"
	"sync/atomic"

	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/wal"
	"xtq/internal/xerr"
)

func readOnly() error {
	return xerr.New(xerr.Conflict, "", "store: read-only follower (writes go to the primary)")
}

// NewFollower returns an empty in-memory store in follower mode: every
// write path fails with a typed Conflict error until Promote. depth is
// the per-document history ring size (0 uses DefaultHistoryDepth,
// negative disables the ring), matching NewWithHistory.
func NewFollower(depth int) *Store {
	switch {
	case depth < 0:
		depth = 0
	case depth == 0:
		depth = DefaultHistoryDepth
	}
	st := NewWithHistory(depth)
	st.follower.Store(true)
	return st
}

// ReadOnly reports whether the store is an unpromoted follower.
func (st *Store) ReadOnly() bool { return st.follower.Load() }

// Promote makes a follower store writable. The replication layer must
// have stopped applying first: after Promote the local version chains
// are authoritative and ordinary writes extend them without a gap (the
// next commit's version is lastApplied+1, exactly as on the primary).
func (st *Store) Promote() { st.follower.Store(false) }

// SetReplPos records the replica's replay position in the primary's
// log; ReplPos reports it. Observability only — the replication layer
// owns the authoritative position.
func (st *Store) SetReplPos(pos wal.Pos) {
	p := pos
	st.repl.Store(&p)
}

// ReplPos reports the last recorded replay position, ok=false when none
// was ever set.
func (st *Store) ReplPos() (wal.Pos, bool) {
	if p := st.repl.Load(); p != nil {
		return *p, true
	}
	return wal.Pos{}, false
}

// WAL exposes a durable store's log to the replication feed service.
// It returns nil for in-memory stores (including followers).
func (st *Store) WAL() *wal.Log {
	if st.dur == nil {
		return nil
	}
	return st.dur.log
}

// HeadVersion reports the version at the head of name's chain,
// including a tombstone head (which every reader-facing path hides).
// Read-your-writes waiting needs the distinction: a client that saw
// version N is satisfied once the chain reaches N, even when N is the
// removal itself — the correct answer to its read is then not-found.
func (st *Store) HeadVersion(name string) (uint64, bool) {
	ds := st.lookup(name)
	if ds == nil {
		return 0, false
	}
	if s := ds.cur.Load(); s != nil {
		return s.version, true
	}
	return 0, false
}

// ReplayOptions configures how logged records are turned back into
// snapshots on a follower: the compiler for canonical update-query
// text, the evaluation method, and the parser depth bound. The zero
// value parses and compiles directly and evaluates with
// core.MethodTopDown — replay is method-independent (recovery's tests
// pin that), so a follower may run a different method than its primary.
type ReplayOptions struct {
	Compile  func(src string) (*core.Compiled, error)
	Method   core.Method
	MaxDepth int
}

func (o ReplayOptions) env() replayEnv {
	env := replayEnv{compile: o.Compile, method: o.Method, maxDepth: o.MaxDepth}
	if env.compile == nil {
		env.compile = func(src string) (*core.Compiled, error) {
			q, err := core.ParseQuery(src)
			if err != nil {
				return nil, err
			}
			return q.Compile()
		}
	}
	env.method = core.Resolve(env.method) // concrete, as in durable replay
	return env
}

// ApplyLogged applies one primary log record to a follower store,
// advancing the matching document's chain by exactly one version —
// puts re-parse, updates re-evaluate their canonical query text,
// removals publish tombstones. The chain is verified strictly; any
// divergence (a gap, a wrong base, an update over a tombstone) is a
// typed Corrupt error whose position names the primary's segment file
// and byte offset. Exactly one goroutine may apply at a time, and
// publication is lock-free for concurrent readers.
//
// ApplyLogged refuses durable stores: a follower replicates in memory
// and persists via its own checkpoints, never a second WAL.
func (st *Store) ApplyLogged(rec wal.Record, pos wal.Pos, o ReplayOptions) error {
	if st.dur != nil {
		return xerr.New(xerr.Eval, "", "store: ApplyLogged on a durable store (followers replicate in memory)")
	}
	return st.replayRecord(o.env(), rec, pos)
}

// CaptureAll returns the current head snapshot of every document,
// including tombstones awaiting garbage collection — the capture a
// follower checkpoint serializes. The snapshots are immutable; the
// slice is a point-in-time read of the heads, not an atomic cut
// (followers call it with the applier paused, which makes it exact).
func (st *Store) CaptureAll() []*Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*Snapshot, 0, len(st.docs))
	for _, ds := range st.docs {
		if s := ds.cur.Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// ResetToLogged replaces the store's entire document set with the
// contents of a checkpoint — the follower bootstrap path, both from a
// primary checkpoint fetched over the wire and from the follower's own
// local checkpoint on restart. Tombstone entries are installed as
// tombstones: replay resuming from exactly the checkpoint's cut needs
// their versions to verify chains and license restarts. pos names the
// checkpoint in errors (a checkpoint that does not parse is corruption,
// not a crash — checkpoint publication is atomic).
//
// Readers racing the swap keep whatever snapshots they hold; the map
// swap itself is guarded by the store lock.
func (st *Store) ResetToLogged(docs []wal.CheckpointDoc, pos string, o ReplayOptions) error {
	env := o.env()
	fresh := make(map[string]*docState, len(docs))
	for _, doc := range docs {
		ds := &docState{}
		if st.histDepth > 0 {
			ds.hist = make([]atomic.Pointer[Snapshot], st.histDepth)
		}
		snap := &Snapshot{name: doc.Name, version: doc.Version}
		if !doc.Removed {
			root, err := parseLogged(doc.XML, env.maxDepth)
			if err != nil {
				return &xerr.Error{Kind: xerr.Corrupt, Pos: pos,
					Msg: fmt.Sprintf("store: checkpointed document %q does not parse", doc.Name), Err: err}
			}
			snap.root, snap.ix, _ = tree.Adopt(root)
		}
		ds.cur.Store(snap)
		ds.pushHist(snap)
		fresh[doc.Name] = ds
	}
	st.mu.Lock()
	st.docs = fresh
	st.mu.Unlock()
	if hook := st.hookFn(); hook != nil {
		// The whole document set changed at once; tell the hook per
		// document so change feeds can direct subscribers to resync.
		for _, ds := range fresh {
			if snap := ds.cur.Load(); snap != nil {
				hook(CommitEvent{Name: snap.name, Kind: CommitReset, Version: snap.version, Snap: snap})
			}
		}
	}
	return nil
}
