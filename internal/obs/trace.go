package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is the per-request trace context: one value created at the top
// of a request (or any caller wanting an EXPLAIN view of one
// evaluation), carried down through the layers in the context, and
// filled in by whichever layers run — the engine records the method,
// query-cache outcome and compile/eval time, the evaluators register
// their node-visit counters, the view layer its per-layer statistics,
// the store its commit cost. The serving layer turns a completed Trace
// into the ?explain=1 JSON body, the X-Xtq-View-Stats header and the
// slow-query log line, all from this one source.
//
// A Trace is written by the request's own goroutine as it descends the
// layers; setters are mutex-guarded so incidental cross-goroutine use
// is safe, but the read-out (NodesVisited and friends) is only
// meaningful after the traced evaluation returned.
type Trace struct {
	start time.Time

	mu sync.Mutex
	// method is the evaluation method actually used ("topdown", ...,
	// "twopassSAX", or "composed" for single-pass view composition).
	method string
	// answer says how a transform query's written answer was produced
	// ("walk", "record" or "replay"; see core.EmitTopDown).
	answer string
	// cacheKnown/cacheHit record the compiled-query cache outcome of the
	// Prepare that fed this request.
	cacheKnown bool
	cacheHit   bool
	compile    time.Duration
	eval       time.Duration
	docNodes   int
	// docNodesFn computes the document size on first DocNodes read, so
	// a traced request that never renders its trace (most of them — the
	// trace only surfaces for ?explain=1 and slow-query lines) never
	// pays the O(n) size walk.
	docNodesFn func() int
	// visits are the evaluators' node-visit counters (core.Canceler
	// registers one per evaluation pass); their sum is the nodes-visited
	// figure of the trace.
	visits []*uint32

	plan   *PlanTrace
	view   *ViewTrace
	commit *CommitTrace
}

// PlanTrace is the planner section of a trace: how a request run with
// method=auto resolved to a concrete method. Requests with a forced
// method carry none.
type PlanTrace struct {
	// Method is the method auto resolved to.
	Method string `json:"method"`
	// Auto is always true: the method was decided, not forced.
	Auto bool `json:"auto"`
	// Reason names the rule that decided.
	Reason string `json:"reason,omitempty"`
}

// ViewTrace is the view-read section of a trace: the same reading the
// ivm layer reports per materialized-view read, JSON-compatible with
// the historical X-Xtq-View-Stats header (which is now serialized from
// here — the trace is the one source of truth the header and EXPLAIN
// both read).
type ViewTrace struct {
	Doc     string `json:"doc"`
	View    string `json:"view"`
	Version uint64 `json:"version"`
	// Source is "cache" when the read was served from a current
	// materialization, "delta" when it was evaluated off the maintained
	// version against the cached one (qualified views included), and
	// "recompute" when it was materialized in full: a first read, or the
	// first after a redefinition.
	Source   string `json:"source"`
	CacheHit bool   `json:"cacheHit"`
	// Commit-path counters of the cache entry.
	DeltaCommits      int `json:"deltaCommits"`
	FullCommits       int `json:"fullCommits"`
	UnaffectedCommits int `json:"unaffectedCommits"`
	UnknownCommits    int `json:"unknownCommits"`
	// Work counters of the evaluation the entry's tree came from.
	NodesVisited   int `json:"nodesVisited"`
	Materialized   int `json:"materialized"`
	ReusedSubtrees int `json:"reusedSubtrees"`
	// Layers breaks the work down per transform layer.
	Layers []LayerTrace `json:"layers,omitempty"`
}

// LayerTrace is the per-transform-layer work of a view evaluation.
type LayerTrace struct {
	NodesVisited int `json:"NodesVisited"`
	Materialized int `json:"Materialized"`
}

// CommitTrace is the write section of a trace: what the store's commit
// of this request cost, filled in by the store's apply path.
type CommitTrace struct {
	Kind    string `json:"kind"` // put, update, remove
	Version uint64 `json:"version"`
	NoOp    bool   `json:"noop,omitempty"`
	// Copy-on-write cost and structure sharing of the commit.
	CopiedNodes    int   `json:"copied_nodes"`
	CopiedBytes    int64 `json:"copied_bytes"`
	SharedWithPrev int   `json:"shared_with_prev,omitempty"`
	// Retries counts CAS rounds this commit lost before winning.
	Retries int `json:"retries,omitempty"`
}

// NewTrace returns an empty trace anchored at now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Elapsed returns the wall time since the trace was created.
func (t *Trace) Elapsed() time.Duration { return time.Since(t.start) }

// SetMethod records the evaluation method actually used.
func (t *Trace) SetMethod(m string) {
	t.mu.Lock()
	t.method = m
	t.mu.Unlock()
}

// SetAnswer records how a written transform answer was produced.
func (t *Trace) SetAnswer(a string) {
	t.mu.Lock()
	t.answer = a
	t.mu.Unlock()
}

// Answer returns how the written transform answer was produced, "" when
// none was written.
func (t *Trace) Answer() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.answer
}

// Method returns the recorded evaluation method.
func (t *Trace) Method() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.method
}

// SetCacheHit records the compiled-query cache outcome.
func (t *Trace) SetCacheHit(hit bool) {
	t.mu.Lock()
	t.cacheKnown, t.cacheHit = true, hit
	t.mu.Unlock()
}

// CacheHit returns the query-cache outcome and whether one was
// recorded.
func (t *Trace) CacheHit() (hit, known bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cacheHit, t.cacheKnown
}

// AddCompile accumulates compile time.
func (t *Trace) AddCompile(d time.Duration) {
	t.mu.Lock()
	t.compile += d
	t.mu.Unlock()
}

// Compile returns the accumulated compile time.
func (t *Trace) Compile() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compile
}

// AddEval accumulates evaluation time.
func (t *Trace) AddEval(d time.Duration) {
	t.mu.Lock()
	t.eval += d
	t.mu.Unlock()
}

// Eval returns the accumulated evaluation time.
func (t *Trace) Eval() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eval
}

// SetDocNodes records the size of the document evaluated over.
func (t *Trace) SetDocNodes(n int) {
	t.mu.Lock()
	t.docNodes, t.docNodesFn = n, nil
	t.mu.Unlock()
}

// SetDocNodesFunc records a deferred size computation, run (once) only
// if the trace is actually read out.
func (t *Trace) SetDocNodesFunc(fn func() int) {
	t.mu.Lock()
	t.docNodesFn = fn
	t.mu.Unlock()
}

// DocNodes returns the recorded document size, resolving a deferred
// computation on first call.
func (t *Trace) DocNodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.docNodesFn != nil {
		t.docNodes, t.docNodesFn = t.docNodesFn(), nil
	}
	return t.docNodes
}

// AddVisitCounter registers an evaluator's node-visit counter. The
// counter is read by NodesVisited after the evaluation returns; the
// evaluator increments it without synchronization on its hot loop.
func (t *Trace) AddVisitCounter(p *uint32) {
	t.mu.Lock()
	t.visits = append(t.visits, p)
	t.mu.Unlock()
}

// NodesVisited sums the registered visit counters — the nodes the
// evaluators actually touched for this request. Only meaningful after
// the traced evaluation returned.
func (t *Trace) NodesVisited() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, p := range t.visits {
		n += uint64(*p)
	}
	return int(n)
}

// SetPlan records the planner section.
func (t *Trace) SetPlan(p *PlanTrace) {
	t.mu.Lock()
	t.plan = p
	t.mu.Unlock()
}

// Plan returns the planner section, nil unless method=auto decided.
func (t *Trace) Plan() *PlanTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.plan
}

// SetView records the view-read section.
func (t *Trace) SetView(v *ViewTrace) {
	t.mu.Lock()
	t.view = v
	t.mu.Unlock()
}

// View returns the view-read section, nil when the request read no
// view.
func (t *Trace) View() *ViewTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view
}

// SetCommit records the commit section.
func (t *Trace) SetCommit(c *CommitTrace) {
	t.mu.Lock()
	t.commit = c
	t.mu.Unlock()
}

// Commit returns the commit section, nil when the request committed
// nothing.
func (t *Trace) Commit() *CommitTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commit
}

// traceKey is the context key carrying a *Trace.
type traceKey struct{}

// WithTrace returns ctx carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. Layers call it at
// their instrumentation points and skip the bookkeeping when no trace
// rides the request.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
