package ivm

import (
	"context"
	"sort"
	"strings"
	"sync"

	"xtq/internal/compose"
	"xtq/internal/core"
	"xtq/internal/store"
	"xtq/internal/tree"
	"xtq/internal/xerr"
)

// Stats describes one materialized-view read plus the maintenance
// history of its cache entry; it is what the serving layer reports in
// the X-Xtq-View-Stats header.
type Stats struct {
	Doc     string `json:"doc"`
	View    string `json:"view"`
	Version uint64 `json:"version"`
	// Source is "cache" when the read was served from a current
	// materialization, "delta" when it was evaluated off the maintained
	// version against the entry's memo (splicing every subtree the
	// snapshot shares with the memo's version), and "recompute" when it
	// was materialized in full: a first read, or the first read after a
	// redefinition.
	Source   string `json:"source"`
	CacheHit bool   `json:"cacheHit"`
	// Commit-path counters of the cache entry: how many commits were
	// absorbed by delta maintenance, full recomposition, a provably
	// unaffected no-op bump, or an unknown verdict (maintained like
	// affected).
	DeltaCommits      int `json:"deltaCommits"`
	FullCommits       int `json:"fullCommits"`
	UnaffectedCommits int `json:"unaffectedCommits"`
	UnknownCommits    int `json:"unknownCommits"`
	// Work counters of the evaluation the entry's tree came from.
	NodesVisited   int `json:"nodesVisited"`
	Materialized   int `json:"materialized"`
	ReusedSubtrees int `json:"reusedSubtrees"`
	// Layers breaks the work down per transform layer.
	Layers []compose.Stats `json:"layers,omitempty"`
}

// viewDef is one registered view: a stack of compiled transforms.
type viewDef struct {
	name   string
	key    string // canonical layer renderings joined with \x1f
	layers []*core.Compiled
	stack  *compose.Stack // the fused evaluator of layers
	// eager views are materialized on every affecting commit; lazy ones
	// only once read.
	eager bool
}

// matEntry is the maintained materialization of one (document, view)
// pair.
type matEntry struct {
	mu sync.Mutex
	// version is the document version tree reflects.
	version uint64
	// memoVersion is the document version memo's keys point into; delta
	// maintenance applies only when it equals the commit's base version.
	// Provably-unaffected commits advance version without touching the
	// tree, which leaves the memo behind — the next affecting commit
	// then recomposes in full.
	memoVersion uint64
	tree        *tree.Node
	memo        *compose.Memo
	// chain is the version chain the last full materialization was
	// stamped into in place (tree.StampChain), whose nodes the
	// delta-maintained versions since then keep splicing; nil when that
	// materialization created no node. Delta versions are left
	// unstamped, so the chain never widens. Reads served from the entry
	// build the chain's image on its second read (noteChainRead).
	chain *tree.Index

	deltaCommits, fullCommits int
	unaffected, unknown       int
	lastStats                 compose.ViewStats
}

// Manager maintains materializations of registered views across store
// commits and serves them to readers. It is driven by the store's
// commit hook (OnCommit) and by the facade's view registry
// (SetView/RemoveView); all methods are safe for concurrent use.
type Manager struct {
	cache VerdictCache

	mu    sync.Mutex
	views map[string]*viewDef
	mats  map[string]*matEntry // doc + "\x00" + view
}

// NewManager returns a manager. Every view is evaluated by its fused
// compose.Stack, so the method is unused. cache, when non-nil, memoizes
// impact verdicts across commits (keyed by canonical view and update
// renderings).
func NewManager(_ core.Method, cache VerdictCache) *Manager {
	return &Manager{
		cache: cache,
		views: make(map[string]*viewDef),
		mats:  make(map[string]*matEntry),
	}
}

func matKey(doc, view string) string { return doc + "\x00" + view }

// SetView registers (or redefines) a view and atomically drops every
// materialization recorded under its name — callers publish the
// registry change event while holding no manager state. layers must be
// a non-empty stack with no nil layer, as Engine.View builds them;
// SetView panics otherwise.
func (m *Manager) SetView(name string, layers []*core.Compiled, eager bool) {
	stack, err := compose.NewStack(layers)
	if err != nil {
		panic(err)
	}
	keys := make([]string, len(layers))
	for i, l := range layers {
		keys[i] = l.Query.String()
	}
	def := &viewDef{name: name, key: strings.Join(keys, "\x1f"), layers: layers, stack: stack, eager: eager}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.views[name] = def
	m.dropViewLocked(name)
}

// RemoveView unregisters a view and drops its materializations,
// reporting whether it existed.
func (m *Manager) RemoveView(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.views[name]
	delete(m.views, name)
	m.dropViewLocked(name)
	return ok
}

func (m *Manager) dropViewLocked(name string) {
	suffix := "\x00" + name
	for k := range m.mats {
		if strings.HasSuffix(k, suffix) {
			delete(m.mats, k)
		}
	}
}

// ViewNames returns the registered view names, sorted.
func (m *Manager) ViewNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.views))
	for n := range m.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropDoc discards every materialization of the named document.
func (m *Manager) DropDoc(doc string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := doc + "\x00"
	for k := range m.mats {
		if strings.HasPrefix(k, prefix) {
			delete(m.mats, k)
		}
	}
}

// snapshot returns a stable copy of the registry.
func (m *Manager) defs() []*viewDef {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*viewDef, 0, len(m.views))
	for _, d := range m.views {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (m *Manager) entry(doc, view string, create bool) *matEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := matKey(doc, view)
	e := m.mats[k]
	if e == nil && create {
		e = &matEntry{}
		m.mats[k] = e
	}
	return e
}

// verdict analyzes one update against one view, going through the
// verdict cache when one is installed.
func (m *Manager) verdict(def *viewDef, upd *core.Compiled) Verdict {
	if m.cache == nil {
		return Analyze(def.layers, upd)
	}
	key := def.key + "\x1f\x1f" + upd.Query.String()
	if v, ok := m.cache.Get(key); ok {
		return v
	}
	v := Analyze(def.layers, upd)
	m.cache.Add(key, v)
	return v
}

// OnCommit maintains every registered view across one committed version
// change and returns the names of the views the commit may have changed
// (statically affected or unknown) — the change event's affectedViews.
// The store delivers events per document in version order; OnCommit
// runs inside the commit, so provably-unaffected paths do no tree work.
func (m *Manager) OnCommit(ev store.CommitEvent) []string {
	defs := m.defs()
	if len(defs) == 0 {
		return nil
	}
	if ev.Kind == store.CommitRemove || ev.Kind == store.CommitReset {
		// Removal or reset: every materialization of the document is
		// invalid, and without a base tree every view is affected.
		m.DropDoc(ev.Name)
		names := make([]string, len(defs))
		for i, d := range defs {
			names[i] = d.name
		}
		return names
	}
	if ev.Kind == store.CommitUpdate && ev.NoOp {
		// The snapshot shares the previous tree wholesale: memo pointers
		// stay valid, so both versions advance.
		for _, def := range defs {
			if e := m.entry(ev.Name, def.name, false); e != nil {
				e.mu.Lock()
				if e.version == ev.Prev {
					e.version = ev.Version
					if e.memoVersion == ev.Prev {
						e.memoVersion = ev.Version
					}
					e.unaffected++
					mMaintained.With("unaffected").Inc()
				}
				e.mu.Unlock()
			}
		}
		return nil
	}
	var affected []string
	for _, def := range defs {
		v := VerdictAffected
		if ev.Kind == store.CommitUpdate {
			v = m.verdict(def, ev.Update)
		}
		if v == VerdictUnknown {
			mUnknownVerdicts.Inc()
		}
		if v == VerdictUnaffected {
			// Zero-work path: the new version serves the same bytes. The
			// memo stays at its old version — nodes of the new snapshot
			// are unknown to it — so a later affecting commit recomposes.
			if e := m.entry(ev.Name, def.name, false); e != nil {
				e.mu.Lock()
				if e.version == ev.Prev {
					e.version = ev.Version
					e.unaffected++
					mMaintained.With("unaffected").Inc()
				}
				e.mu.Unlock()
			}
			continue
		}
		affected = append(affected, def.name)
		e := m.entry(ev.Name, def.name, def.eager)
		if e == nil {
			continue // lazy view never read: nothing to maintain
		}
		e.mu.Lock()
		if e.version >= ev.Version {
			// Already there: a read of the published snapshot ran ahead of
			// this hook and installed it.
			e.mu.Unlock()
			continue
		}
		canDelta := ev.Bridge != nil && e.memo != nil &&
			e.version == ev.Prev && e.memoVersion == ev.Prev
		maintained := false
		if canDelta {
			out, memo, stats, ok, err := def.stack.EvalDelta(
				context.Background(), ev.Snap.Root(), ev.Bridge, e.memo)
			if err == nil && ok {
				e.tree, e.memo = out, memo
				e.version, e.memoVersion = ev.Version, ev.Version
				e.deltaCommits++
				mMaintained.With("delta").Inc()
				if v == VerdictUnknown {
					e.unknown++
				}
				e.lastStats = stats
				maintained = true
			}
		}
		if !maintained {
			out, memo, stats, err := def.stack.Eval(context.Background(), ev.Snap.Root())
			if err != nil {
				// Evaluation failed (cancelled or depth-bounded): drop the
				// entry rather than serve a stale tree as current.
				m.mu.Lock()
				delete(m.mats, matKey(ev.Name, def.name))
				m.mu.Unlock()
			} else {
				e.installFull(ev.Version, out, memo, stats)
				mMaintained.With("full").Inc()
				if v == VerdictUnknown {
					e.unknown++
				}
			}
		}
		e.mu.Unlock()
	}
	return affected
}

// installFull makes out — a materialization that shares no unstamped
// node with any other tree — e's tree at version, stamped in place as a
// chain of its own (e.mu held).
func (e *matEntry) installFull(version uint64, out *tree.Node, memo *compose.Memo, stats compose.ViewStats) {
	e.tree, e.memo = out, memo
	e.chain = tree.StampChain(out)
	e.version, e.memoVersion = version, version
	e.fullCommits++
	e.lastStats = stats
}

// Get serves the materialization of view over snap. A read at the
// maintained version is a cache hit. Any other read runs by delta
// against the entry's memo, with the snapshot as its own bridge: memo
// keys are immutable snapshot nodes, so every subtree snap shares with
// the memo's version is spliced, whether snap is older (time travel,
// served without caching) or newer (published before the commit hook
// ran, installed so later reads hit). Only a read with no entry to run
// against (the first, or the first after a redefinition) materializes
// in full; a full materialization that is installed is stamped in place
// as a chain of its own.
func (m *Manager) Get(ctx context.Context, snap *store.Snapshot, view string) (*tree.Node, Stats, error) {
	m.mu.Lock()
	def := m.views[view]
	m.mu.Unlock()
	if def == nil {
		return nil, Stats{}, xerr.New(xerr.NotFound, "", "ivm: view %q is not registered", view)
	}
	st := Stats{Doc: snap.Name(), View: view, Version: snap.Version()}
	var memo *compose.Memo
	if e := m.entry(snap.Name(), view, false); e != nil {
		e.mu.Lock()
		if e.version == snap.Version() {
			out, chain := e.tree, e.chain
			fillStats(&st, e, "cache")
			e.mu.Unlock()
			noteChainRead(chain)
			noteRead(ctx, st)
			return out, st, nil
		}
		memo = e.memo
		e.mu.Unlock()
	}
	var (
		out   *tree.Node
		next  *compose.Memo
		vs    compose.ViewStats
		delta bool
		err   error
	)
	if memo != nil {
		out, next, vs, delta, err = def.stack.EvalDelta(ctx, snap.Root(), snap.Root(), memo)
	}
	if err == nil && !delta {
		out, next, vs, err = def.stack.Eval(ctx, snap.Root())
	}
	if err != nil {
		return nil, st, err
	}
	source := "recompute"
	if delta {
		source = "delta"
	}
	// Install unless the entry holds this version or a newer one: a read
	// below the maintained version (or one a maintenance racer overtook)
	// serves its result without caching it.
	e := m.entry(snap.Name(), view, true)
	e.mu.Lock()
	if snap.Version() <= e.version {
		chain := e.chain
		e.mu.Unlock()
		if delta {
			noteChainRead(chain)
		}
		st.Source = source
		statsFromEval(&st, vs)
		noteRead(ctx, st)
		return out, st, nil
	}
	if delta && vs.ReusedSubtrees > 0 {
		// The result splices the entry's nodes: it is a delta version of
		// the entry's chain, left unstamped.
		e.tree, e.memo = out, next
		e.version, e.memoVersion = snap.Version(), snap.Version()
		e.deltaCommits++
		e.lastStats = vs
	} else {
		// Built from scratch, which a delta run that spliced nothing is
		// too: every unstamped node is this evaluation's own.
		e.installFull(snap.Version(), out, next, vs)
	}
	fillStats(&st, e, source)
	chain := e.chain
	e.mu.Unlock()
	if delta {
		noteChainRead(chain)
	}
	noteRead(ctx, st)
	return out, st, nil
}

// fillStats copies e's counters into st (e.mu held).
func fillStats(st *Stats, e *matEntry, source string) {
	st.Source, st.CacheHit = source, source == "cache"
	st.DeltaCommits = e.deltaCommits
	st.FullCommits = e.fullCommits
	st.UnaffectedCommits = e.unaffected
	st.UnknownCommits = e.unknown
	statsFromEval(st, e.lastStats)
}

func statsFromEval(st *Stats, vs compose.ViewStats) {
	st.NodesVisited = vs.NodesVisited
	st.Materialized = vs.Materialized
	st.ReusedSubtrees = vs.ReusedSubtrees
	if len(vs.Layers) > 0 {
		st.Layers = append([]compose.Stats(nil), vs.Layers...)
	}
}
