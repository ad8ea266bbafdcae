package xtq

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"time"

	"xtq/internal/core"
	"xtq/internal/ivm"
	"xtq/internal/obs"
	"xtq/internal/plan"
	"xtq/internal/sax"
	"xtq/internal/stats"
	"xtq/internal/store"
	"xtq/internal/tree"
)

// DefaultQueryCacheSize is the compiled-query cache capacity of an Engine
// built without WithQueryCacheSize.
const DefaultQueryCacheSize = 128

// DefaultViewCacheSize is the composition-plan cache capacity of an
// Engine built without WithViewCacheSize. Plans are keyed by (view stack,
// user query), so the steady state of a service answering a fixed set of
// user queries over a fixed set of views never rebuilds a plan.
const DefaultViewCacheSize = 64

// DefaultVerdictCacheSize is the impact-verdict cache capacity of an
// Engine built without WithVerdictCacheSize. Verdicts are keyed by the
// canonical renderings of (view stack, update query), so a workload
// with a fixed update vocabulary decides each (view, update) pair's
// impact exactly once.
const DefaultVerdictCacheSize = 512

// DefaultDecisionCacheSize is the planner decision cache capacity of an
// Engine built without WithDecisionCacheSize. Decisions are keyed by
// (query source, statistics fingerprint), so an Auto engine evaluating
// a fixed query set against a document version runs the cost model once
// per (query, version-statistics) pair; a commit changes the
// fingerprint and naturally invalidates every entry for the document.
const DefaultDecisionCacheSize = 256

// Engine is the long-lived entry point of the package, in the mould of
// database/sql.DB: construct one per process (or per configuration),
// hand out Prepared statements and PreparedViews, and share all of them
// freely across goroutines.
//
//	eng := xtq.NewEngine(xtq.WithMethod(xtq.MethodTwoPass))
//	p, err := eng.Prepare(`transform copy $a := doc("d") modify
//	                       do delete $a//price return $a`)
//	view, err := p.Eval(ctx, doc)
//
// The engine owns two LRU caches: compiled queries keyed by query source
// (absorbing repeated Prepare calls — the steady state of a service
// evaluating a fixed query set over many documents skips both parsing
// and automaton construction) and view composition plans keyed by
// (view stack, user query) (absorbing repeated View(...).Prepare calls).
type Engine struct {
	method   Method
	maxDepth int

	queryCap    int
	viewCap     int
	verdictCap  int
	decisionCap int
	queries     *lruCache // *core.Compiled values
	plans       *lruCache // *compose.Plan values
	verdicts    *lruCache // ivm.Verdict values
	decisions   *lruCache // plan.Decision values
}

// lruCache is a mutex-guarded LRU keyed by strings. The zero capacity
// disables it: get always misses without counting, add is a no-op.
type lruCache struct {
	cap int

	mu     sync.Mutex
	ll     *list.List // front = most recently used; values are *lruEntry
	byKey  map[string]*list.Element
	hits   uint64
	misses uint64

	// mHits/mMisses mirror the per-cache counters onto the process-wide
	// obs registry; the local uint64s stay authoritative for CacheStats.
	mHits   *obs.Counter
	mMisses *obs.Counter
}

type lruEntry struct {
	key   string
	value any
}

func newLRUCache(capacity int, name string) *lruCache {
	return &lruCache{
		cap:     capacity,
		ll:      list.New(),
		byKey:   make(map[string]*list.Element),
		mHits:   mCacheHits.With(name),
		mMisses: mCacheMisses.With(name),
	}
}

// get returns the cached value for key, marking it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mHits.Inc()
		return el.Value.(*lruEntry).value, true
	}
	c.misses++
	c.mMisses.Inc()
	return nil, false
}

// add inserts key → value unless the key raced in since the miss, then
// evicts down to capacity.
func (c *lruCache) add(key string, value any) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruEntry{key: key, value: value})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
}

// stats reports hits and misses since construction and the current size.
func (c *lruCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// Option configures an Engine.
type Option func(*Engine)

// WithMethod selects the in-memory evaluation method Prepared.Eval uses;
// the default is MethodTopDown, the paper's best-performing general
// method ("GENTOP"). MethodAuto (alias Auto) lets the cost-based
// planner pick a concrete method per (query, document) from the
// document's statistics instead.
func WithMethod(m Method) Option { return func(e *Engine) { e.method = m } }

// WithQueryCacheSize sets the capacity of the compiled-query cache; zero
// disables caching, negative values leave the default in place.
func WithQueryCacheSize(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.queryCap = n
		}
	}
}

// WithViewCacheSize sets the capacity of the view composition-plan
// cache; zero disables caching, negative values leave the default in
// place.
func WithViewCacheSize(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.viewCap = n
		}
	}
}

// WithVerdictCacheSize sets the capacity of the impact-verdict cache
// maintained materialized views consult on every commit; zero disables
// caching (every commit re-analyzes), negative values leave the default
// in place.
func WithVerdictCacheSize(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.verdictCap = n
		}
	}
}

// WithDecisionCacheSize sets the capacity of the planner decision cache
// an Auto engine consults per evaluation; zero disables caching (every
// evaluation runs the cost model — it is cheap, but not free), negative
// values leave the default in place.
func WithDecisionCacheSize(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.decisionCap = n
		}
	}
}

// WithMaxDepth bounds element nesting when the engine parses input
// documents (Prepared.Eval over file/bytes/reader sources); zero, the
// default, means no limit. Streaming evaluation is not affected: its
// memory use is O(depth) by construction.
func WithMaxDepth(d int) Option { return func(e *Engine) { e.maxDepth = d } }

// NewEngine builds an Engine from functional options.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		method:      MethodTopDown,
		queryCap:    DefaultQueryCacheSize,
		viewCap:     DefaultViewCacheSize,
		verdictCap:  DefaultVerdictCacheSize,
		decisionCap: DefaultDecisionCacheSize,
	}
	for _, o := range opts {
		o(e)
	}
	e.queries = newLRUCache(e.queryCap, "query")
	e.plans = newLRUCache(e.viewCap, "plan")
	e.verdicts = newLRUCache(e.verdictCap, "verdict")
	e.decisions = newLRUCache(e.decisionCap, "decision")
	return e
}

// Method returns the evaluation method Prepared.Eval uses.
func (e *Engine) Method() Method { return e.method }

// Prepare parses and compiles a transform query, or retrieves the
// compiled form from the engine's cache. The returned Prepared is
// immutable and safe for concurrent use.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	return e.PrepareContext(context.Background(), src)
}

// PrepareContext is Prepare with a context: when ctx carries an
// obs.Trace (a request being explained), the trace records whether the
// compiled query came from the engine's cache and how long a cache-miss
// compile took. The context does not bound the compile itself — parsing
// and automaton construction are O(|query|) and not worth aborting.
func (e *Engine) PrepareContext(ctx context.Context, src string) (*Prepared, error) {
	if err := e.validateMethod(); err != nil {
		return nil, err
	}
	return e.prepare(ctx, src, func() (*core.Compiled, error) {
		q, err := core.ParseQuery(src)
		if err != nil {
			return nil, err
		}
		return q.Compile()
	})
}

// PrepareQuery compiles an already-parsed query, caching by its canonical
// rendering. The cached compiled form is re-parsed from that rendering
// rather than aliasing q, so the caller remains free to mutate q between
// calls: a later mutation changes the rendering and simply keys a
// different entry.
func (e *Engine) PrepareQuery(q *Query) (*Prepared, error) {
	if err := e.validateMethod(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		// Validate before rendering: String is only meaningful on
		// well-formed queries.
		return nil, err
	}
	key := q.String()
	own, err := core.ParseQuery(key)
	if err != nil {
		// The rendering does not round-trip (e.g. a doc() argument
		// containing both quote characters, which surface syntax cannot
		// express). Compile the live query directly and skip the shared
		// cache so its entries never alias caller-mutable state.
		c, cerr := q.Compile()
		if cerr != nil {
			return nil, classify(cerr, KindCompile)
		}
		return &Prepared{eng: e, src: key, compiled: c}, nil
	}
	return e.prepare(context.Background(), key, own.Compile)
}

func (e *Engine) validateMethod() error {
	_, err := core.ParseMethod(string(e.method))
	return err
}

func (e *Engine) prepare(ctx context.Context, key string, compile func() (*core.Compiled, error)) (*Prepared, error) {
	tr := obs.TraceFrom(ctx)
	if v, ok := e.queries.get(key); ok {
		if tr != nil {
			tr.SetCacheHit(true)
		}
		return &Prepared{eng: e, src: key, compiled: v.(*core.Compiled)}, nil
	}
	if tr != nil {
		tr.SetCacheHit(false)
	}
	start := time.Now()
	c, err := compile()
	if err != nil {
		return nil, classify(err, KindCompile)
	}
	d := time.Since(start)
	mCompileSeconds.Observe(d)
	if tr != nil {
		tr.AddCompile(d)
	}
	e.queries.add(key, c)
	return &Prepared{eng: e, src: key, compiled: c}, nil
}

// CacheStats reports compiled-query cache effectiveness: hits and misses
// since the engine was built, and the current number of cached queries.
func (e *Engine) CacheStats() (hits, misses uint64, size int) {
	return e.queries.stats()
}

// ViewCacheStats reports composition-plan cache effectiveness: hits and
// misses since the engine was built, and the current number of cached
// plans.
func (e *Engine) ViewCacheStats() (hits, misses uint64, size int) {
	return e.plans.stats()
}

// VerdictCacheStats reports impact-verdict cache effectiveness: hits
// and misses since the engine was built, and the current number of
// cached (view stack, update) verdicts.
func (e *Engine) VerdictCacheStats() (hits, misses uint64, size int) {
	return e.verdicts.stats()
}

// DecisionCacheStats reports planner decision cache effectiveness:
// hits and misses since the engine was built, and the current number of
// cached (query, statistics-fingerprint) decisions.
func (e *Engine) DecisionCacheStats() (hits, misses uint64, size int) {
	return e.decisions.stats()
}

// decide resolves MethodAuto for one (prepared query, document) pair:
// the document's statistics fingerprint keys the cached decision — a
// commit bumps the fingerprint, so stale decisions age out of the LRU
// on their own. The boolean reports a cache hit; hits still count into
// the decisions metric (the planner resolved, however cheaply).
func (e *Engine) decide(src string, c *core.Compiled, doc *Node) (plan.Decision, bool) {
	ix := tree.EnsureIndex(doc)
	key := src + "\x00" + strconv.FormatUint(stats.Of(ix).Fingerprint(), 10)
	if v, ok := e.decisions.get(key); ok {
		dec := v.(plan.Decision)
		plan.RecordDecision(dec.Method)
		return dec, true
	}
	dec := plan.Choose(c, ix)
	e.decisions.add(key, dec)
	return dec, false
}

// verdictCache adapts the engine's LRU to the maintenance layer's
// cache interface.
type verdictCache struct{ c *lruCache }

func (v verdictCache) Get(key string) (ivm.Verdict, bool) {
	if x, ok := v.c.get(key); ok {
		return x.(ivm.Verdict), true
	}
	return ivm.VerdictUnknown, false
}

func (v verdictCache) Add(key string, val ivm.Verdict) { v.c.add(key, val) }

// parse reads one document from src applying the engine's parse options.
// Cancelling ctx aborts the parse at SAX-event granularity, so a large
// input stops loading promptly.
func (e *Engine) parse(ctx context.Context, src Source) (*Node, error) {
	if n, ok := src.(*Node); ok {
		return n, nil
	}
	if sn, ok := src.(*store.Snapshot); ok {
		// Unwrap the sealed tree directly — the store's lock-free read
		// path — instead of serializing and re-parsing through Open.
		return sn.Root(), nil
	}
	r, err := src.Open()
	if err != nil {
		return nil, classify(err, KindIO)
	}
	defer r.Close()
	var tb sax.TreeBuilder
	p := sax.NewParserOptions(r, sax.WithCancel(ctx, &tb), sax.Options{MaxDepth: e.maxDepth})
	if err := p.Parse(); err != nil {
		// Well-formedness violations arrive as *sax.ParseError and
		// classify as KindParse, cancellations as KindEval; anything
		// else is the reader failing mid-document — an I/O failure.
		return nil, classify(err, KindIO)
	}
	return tb.Document(), nil
}
