package xtq

import (
	"context"
	"net/http"
	"time"

	"xtq/internal/core"
	"xtq/internal/replica"
	"xtq/internal/store"
)

// ReplicationHandler exposes a durable store's write-ahead log over HTTP
// — the primary half of WAL-shipping replication. Mount it under /wal
// (strip the prefix) and point followers at the server's base URL:
//
//	mux.Handle("/wal/", http.StripPrefix("/wal", st.ReplicationHandler()))
//
// The feed serves the log's own frames verbatim (sealed segments and a
// long-polled live tail) plus the newest checkpoint for bootstrap; it is
// read-only and safe to expose alongside the normal document API. An
// in-memory store has no log; the handler is nil.
func (s *Store) ReplicationHandler() http.Handler {
	l := s.st.WAL()
	if l == nil {
		return nil
	}
	return replica.NewLogService(l)
}

// WalTail reports the durable store's current log tail — active segment
// number, safe byte offset within it, and records appended since open.
// ok is false on an in-memory store. This is what /healthz reports on a
// primary: a follower is caught up exactly when its position equals this
// tail.
func (s *Store) WalTail() (segment uint64, offset int64, records int64, ok bool) {
	l := s.st.WAL()
	if l == nil {
		return 0, 0, 0, false
	}
	pos := l.TailPos()
	return pos.Seq, pos.Offset, l.AppendedRecords(), true
}

// ReadOnly reports whether this store is an unpromoted follower replica
// — every write returns a KindConflict error until Follower.Promote.
func (s *Store) ReadOnly() bool { return s.st.ReadOnly() }

// FollowerStats is a point-in-time reading of a follower's replication
// state, JSON-ready for /healthz.
type FollowerStats struct {
	// Position is the next primary log byte the follower will fetch
	// ("seg-NNNN.wal:OFFSET"); everything before it is applied locally.
	Position string `json:"position"`
	// Applied and AppliedBytes count log records and bytes applied since
	// this process started following.
	Applied      int64 `json:"applied_records"`
	AppliedBytes int64 `json:"applied_bytes"`
	// Tail is the primary's log tail as of the last successful fetch.
	Tail string `json:"primary_tail"`
	// BehindBytes is the byte lag behind the primary's tail; -1 before
	// the first successful fetch.
	BehindBytes int64 `json:"behind_bytes"`
	// BehindRecords is the version lag: primary commits not yet applied
	// here. -1 until the follower has fully caught up once (which anchors
	// the primary's record counter) or after a primary restart.
	BehindRecords int64 `json:"behind_records"`
	// Connected reports whether the last feed request succeeded.
	Connected bool `json:"connected"`
	// Promoted reports a promoted (now writable) follower.
	Promoted bool `json:"promoted"`
	// Err is the sticky failure that stopped replication ("" while
	// healthy) — a divergence or corruption, never a transient error.
	Err string `json:"error,omitempty"`
}

// followConfig collects the Follow options.
type followConfig struct {
	o replica.Options
}

// FollowOption configures Follow.
type FollowOption func(*followConfig)

// WithFollowDir persists the follower's state (periodic local
// checkpoints plus its replay position) under dir, so a restarted
// follower resumes tailing where it stopped instead of re-bootstrapping
// from the primary. Default: fully in memory.
func WithFollowDir(dir string) FollowOption {
	return func(c *followConfig) { c.o.Dir = dir }
}

// WithFollowPoll sets the long-poll wait per feed request. Default 2s.
func WithFollowPoll(d time.Duration) FollowOption {
	return func(c *followConfig) { c.o.Poll = d }
}

// WithFollowClient overrides the HTTP client used against the primary.
func WithFollowClient(hc *http.Client) FollowOption {
	return func(c *followConfig) { c.o.Client = hc }
}

// WithFollowLogf directs replication progress lines to f.
func WithFollowLogf(f func(format string, args ...any)) FollowOption {
	return func(c *followConfig) { c.o.Logf = f }
}

// Follower is a live read replica of a primary xtqd: it tails the
// primary's write-ahead-log feed and replays every logical update record
// through its own engine, so its store converges to byte-identical
// document state with fully verified version chains. Reads on Store()
// are lock-free snapshots exactly as on the primary; writes fail with
// KindConflict until Promote.
//
// Because the log records are canonical update-query text (the paper's
// update syntax doubling as the replication protocol), replay is
// method-independent: the follower may evaluate with a different method
// than the primary and still converge to the same bytes.
type Follower struct {
	f  *replica.Follower
	st *Store
}

// Follow starts a follower replicating the primary at primaryURL (the
// base URL of a durable xtqd — its /wal feed is derived from it). A nil
// eng uses a fresh default Engine; its Prepare compiles the replayed
// update queries through the shared query cache. Follow fails if the
// primary is unreachable and no consistent local state (WithFollowDir)
// exists.
func Follow(primaryURL string, eng *Engine, options ...FollowOption) (*Follower, error) {
	if eng == nil {
		eng = NewEngine()
	}
	cfg := followConfig{o: replica.Options{
		Primary: primaryURL,
		Replay: store.ReplayOptions{
			Compile: func(src string) (*core.Compiled, error) {
				p, err := eng.Prepare(src)
				if err != nil {
					return nil, err
				}
				return p.compiled, nil
			},
			Method:   eng.method,
			MaxDepth: eng.maxDepth,
		},
	}}
	for _, o := range options {
		o(&cfg)
	}
	f, err := replica.Start(cfg.o)
	if err != nil {
		return nil, classify(err, KindIO)
	}
	st := &Store{eng: eng, st: f.Store(), views: make(map[string]*View)}
	// Followers serve /watch and materialized views off the replication
	// tail: the single applier goroutine drives the same commit hook a
	// primary's writers do, so events arrive in replayed-version order.
	st.wireIVM()
	return &Follower{f: f, st: st}, nil
}

// Store returns the replica's document store. It serves Snapshot /
// SnapshotAt / History / views like any store; writes return
// KindConflict until Promote.
func (f *Follower) Store() *Store { return f.st }

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.f.Primary() }

// WaitMinVersion blocks until name's version chain reaches at least
// version — the read-your-writes primitive behind xtqd's
// X-Xtq-Min-Version header. It returns nil immediately on a promoted
// follower (local state is then authoritative), the context's error on
// deadline (callers redirect the read to the primary), and the sticky
// replication failure, typed, if tailing has stopped.
func (f *Follower) WaitMinVersion(ctx context.Context, name string, version uint64) error {
	err := f.f.WaitMinVersion(ctx, name, version)
	if err == ctx.Err() {
		return err // keep context identity for errors.Is
	}
	return classify(err, KindCorrupt)
}

// Stats returns a point-in-time reading of the replication state.
func (f *Follower) Stats() FollowerStats {
	s := f.f.Stats()
	return FollowerStats{
		Position:      s.Position.String(),
		Applied:       s.Applied,
		AppliedBytes:  s.AppliedBytes,
		Tail:          s.Tail.String(),
		BehindBytes:   s.BehindBytes,
		BehindRecords: s.BehindRecords,
		Connected:     s.Connected,
		Promoted:      s.Promoted,
		Err:           s.Err,
	}
}

// Err returns the sticky failure that stopped replication, nil while
// healthy.
func (f *Follower) Err() error { return classify(f.f.Err(), KindCorrupt) }

// Promote stops replication and makes the store writable — failover.
// The replicated version chains continue seamlessly: the next commit to
// a document lands at lastReplicated+1, exactly as it would have on the
// primary. Promotion is one-way.
func (f *Follower) Promote() { f.f.Promote() }

// Close stops replication (persisting a final local checkpoint when
// WithFollowDir is set). The store stays readable — and writable, if
// promoted.
func (f *Follower) Close() error { return f.f.Close() }
