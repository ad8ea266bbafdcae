package xtq

import (
	"context"
	"strconv"

	"xtq/internal/core"
	"xtq/internal/ivm"
	"xtq/internal/store"
)

// Event is one entry of a document's change feed: a committed version
// with its ETag and the registered views the commit may have changed,
// or one of the two out-of-band signals — ViewsChanged (the view
// registry mutated under an unchanged document) and Resync (the
// subscriber has a gap and must re-read current state). Events are
// what GET /docs/{name}/watch streams.
type Event = ivm.Event

// Subscription is one live change-feed connection: Next blocks for the
// next batch of events, Close detaches. A slow subscriber never blocks
// commits — its backlog collapses into a single Resync event instead.
type Subscription = ivm.Subscriber

// MatViewStats describes one materialized-view read and the
// maintenance history of its cache entry — delta versus full commits,
// provably-unaffected no-ops, and the per-layer work counters of the
// evaluation that produced the served tree. xtqd reports it in the
// X-Xtq-View-Stats header.
type MatViewStats = ivm.Stats

// wireIVM attaches the incremental-view-maintenance pipeline to the
// store: a materialization manager driven by the commit hook and a
// change-feed hub that turns every commit into subscriber events.
// Called once at construction, before the store accepts writes.
func (s *Store) wireIVM() {
	s.mgr = ivm.NewManager(core.Method(s.eng.method), verdictCache{s.eng.verdicts})
	s.hub = ivm.NewHub(0, 0)
	s.st.SetCommitHook(func(ev store.CommitEvent) {
		affected := s.mgr.OnCommit(ev)
		e := Event{Doc: ev.Name, Version: ev.Version}
		switch ev.Kind {
		case store.CommitReset:
			// Follower bootstrap replaced the whole document state:
			// versions may have been skipped, subscribers must resync.
			e.Resync = true
		case store.CommitRemove:
			e.Deleted = true
			e.ETag = eventETag(ev.Version)
			e.AffectedViews = affected
		default:
			e.ETag = eventETag(ev.Version)
			e.AffectedViews = affected
		}
		s.hub.Publish(e)
	})
}

// eventETag renders a version as the strong entity tag the document
// endpoints serve (see xtqd's versionHeaders).
func eventETag(v uint64) string {
	return `"` + strconv.FormatUint(v, 10) + `"`
}

// Watch subscribes to name's change feed starting from now: the first
// event is the next commit. The document does not have to exist yet —
// its first Put is then the first event. Close the subscription when
// done.
func (s *Store) Watch(name string) *Subscription {
	return s.hub.Subscribe(name, 0, false, 0)
}

// WatchFrom subscribes to name's change feed resuming after version
// from: events from+1, from+2, ... are replayed from the feed's
// history ring before live delivery begins. When the ring no longer
// reaches back to from (or the server restarted since), the first
// event is a Resync carrying the current version — the caller re-reads
// state and continues gaplessly from there.
func (s *Store) WatchFrom(name string, from uint64) *Subscription {
	head, _ := s.st.HeadVersion(name)
	return s.hub.Subscribe(name, from, true, head)
}

// ViewAt serves the materialization of a registered view over snap,
// maintained incrementally across commits: a read of the maintained
// version (the current snapshot, once materialized) returns the cached
// tree (stats.Source == "cache"). Any other read runs by delta against
// the cached materialization, splicing every subtree snap shares with
// it (stats.Source == "delta"), qualifiers or not: a time-travel read at
// any version SnapshotAt can serve leaves the cache as it was, and a
// read of a version the commit hook has not maintained yet installs it.
// Only a first read (also after a redefinition) evaluates in full
// ("recompute"). The returned tree is immutable; serialize it, do
// not index it.
func (s *Store) ViewAt(ctx context.Context, snap *Snapshot, view string) (*Node, MatViewStats, error) {
	out, stats, err := s.mgr.Get(ctx, snap, view)
	if err != nil {
		return nil, stats, classify(err, KindEval)
	}
	return out, stats, nil
}
