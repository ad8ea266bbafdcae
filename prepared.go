package xtq

import (
	"context"
	"time"

	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/plan"
	"xtq/internal/saxeval"
	"xtq/internal/stats"
	"xtq/internal/tree"
)

// Prepared is a compiled transform query bound to its engine: the parse
// and the O(|p|) selecting-NFA construction (§3.4) are done once, then
// the handle is evaluated over any number of documents. A Prepared is
// immutable and safe for concurrent use by multiple goroutines; each
// evaluation carries its own state.
type Prepared struct {
	eng      *Engine
	src      string
	compiled *core.Compiled
}

// Query returns the parsed query behind the prepared statement. Treat it
// as read-only: the compiled form (possibly shared through the engine
// cache) reflects the query at Prepare time.
func (p *Prepared) Query() *Query { return p.compiled.Query }

// String renders the query in surface syntax.
func (p *Prepared) String() string { return p.compiled.Query.String() }

// Eval evaluates the query over src with the engine's in-memory method
// and returns the transformed document. src is any Source — an
// already-parsed *Node evaluates directly, other sources are parsed
// first (honouring the engine's WithMaxDepth). The input's structure and
// content are never modified; depending on the method the result may
// share unmodified subtrees with it. Cancelling ctx aborts evaluation at
// node granularity with a KindEval error satisfying
// errors.Is(err, context.Canceled).
//
// Concurrency: a document is indexed on its first evaluation (dense
// symbol/ordinal bookkeeping stamped onto its nodes, built exactly once
// under a lock). Concurrent evaluations of the same document, or of
// documents that share no nodes, are always safe. The one unsafe pattern
// is indexing a not-yet-evaluated tree that shares subtrees with a
// document another goroutine is concurrently evaluating — e.g. a result
// tree (which shares unmodified subtrees with its input) evaluated for
// the first time while the original input is still being evaluated
// elsewhere. Evaluate derived trees from one goroutine first (any later
// use is fine), or deep-copy them.
func (p *Prepared) Eval(ctx context.Context, src Source) (*Node, error) {
	return p.evalMethod(ctx, src, p.eng.method)
}

func (p *Prepared) evalMethod(ctx context.Context, src Source, m Method) (*Node, error) {
	doc, err := p.eng.parse(ctx, src)
	if err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	var pt *obs.PlanTrace
	if m == core.MethodAuto {
		// Resolve Auto before evaluation: the planner picks a concrete
		// method from the document's statistics (indexing the document
		// as a side effect — which Eval would do anyway).
		dec, hit := p.eng.decide(p.src, p.compiled, doc)
		m = dec.Method
		pt = &obs.PlanTrace{
			Method:   string(dec.Method),
			Auto:     true,
			EstNodes: dec.EstNodes,
			EstCost:  dec.EstCost,
			Reason:   dec.Reason,
			CacheHit: hit,
		}
	} else if tr != nil {
		// A forced method under a trace still gets a planner section:
		// what the planner would have chosen (the serving layer reports
		// it as planned_method) and the model's estimate for the method
		// that actually runs, so EXPLAIN compares estimated to actual
		// visits apples-to-apples. Not recorded in the decisions metric
		// — the decision was not used.
		ix := tree.EnsureIndex(doc)
		would := plan.WouldChoose(p.compiled, ix)
		est := plan.EstimateMethod(p.compiled, stats.Of(ix), m)
		pt = &obs.PlanTrace{
			Method:   string(would.Method),
			Auto:     false,
			EstNodes: est.Nodes,
			EstCost:  est.Cost,
			Reason:   would.Reason,
		}
	}
	if tr != nil {
		tr.SetMethod(string(m))
		if pt != nil {
			tr.SetPlan(pt)
		}
		if ix := tree.IndexOf(doc); ix != nil {
			// O(1) from the index instead of the O(n) subtree walk —
			// sealed snapshots track their live count, plain indexes
			// their width.
			if n := ix.Live; n > 0 {
				tr.SetDocNodes(n)
			} else {
				tr.SetDocNodes(ix.NumNodes)
			}
		} else {
			// Deferred: only a trace that is actually rendered
			// (?explain=1, a slow-query line) pays for the O(n) count.
			tr.SetDocNodesFunc(doc.Size)
		}
	}
	start := time.Now()
	out, err := p.compiled.EvalContext(ctx, doc, m)
	d := time.Since(start)
	mEvalSeconds.With(string(m)).Observe(d)
	if tr != nil {
		tr.AddEval(d)
		if pt != nil {
			plan.ObserveError(pt.EstNodes, tr.NodesVisited())
		}
	}
	if err != nil {
		return nil, classify(err, KindEval)
	}
	return out, nil
}

// EvalStream evaluates the query over src with the streaming twoPassSAX
// algorithm (§6), pushing the result into sink. Memory use is bounded by
// the document depth, independent of its size; src is read twice (the
// two passes), which is why Source demands repeatable reads. Cancelling
// ctx aborts either pass at SAX-event granularity, so multi-gigabyte
// documents stop streaming promptly.
func (p *Prepared) EvalStream(ctx context.Context, src Source, sink Sink) (StreamResult, error) {
	res, err := saxeval.TransformContext(ctx, p.compiled, src, sink.Handler())
	if err != nil {
		// classify passes typed errors through, so a malformed document
		// stays KindParse and a cancelled or failed evaluation stays
		// KindEval; KindIO is only the fallback for untyped reader
		// failures. See TestEvalStreamPreservesKinds.
		return res, classify(err, KindIO)
	}
	if err := sink.Flush(); err != nil {
		return res, classify(err, KindIO)
	}
	return res, nil
}
