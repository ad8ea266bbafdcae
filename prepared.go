package xtq

import (
	"context"
	"time"

	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/plan"
	"xtq/internal/saxeval"
	"xtq/internal/tree"
)

// Prepared is a compiled transform query bound to its engine: the parse
// and the O(|p|) selecting-NFA construction (§3.4) are done once, then
// the handle is evaluated over any number of documents. A Prepared is
// immutable and safe for concurrent use by multiple goroutines; each
// evaluation carries its own state.
type Prepared struct {
	eng      *Engine
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
// under a lock). A node's stamp is never rewritten, so concurrent
// evaluations of any documents — including result trees that share
// subtrees with an input other goroutines are still evaluating — are
// safe.
func (p *Prepared) Eval(ctx context.Context, src Source) (*Node, error) {
	return p.EvalWith(ctx, src, p.eng.method)
}

// EvalWith is Eval with the method m in place of the engine's: the
// method is a property of one evaluation, so one engine (and its one
// query cache) serves every method. MethodAuto runs MethodTopDown and
// reports the decision, as on an engine built WithMethod(MethodAuto).
// An unknown m fails with a KindEval error before src is read.
func (p *Prepared) EvalWith(ctx context.Context, src Source, m Method) (*Node, error) {
	if _, err := core.ParseMethod(string(m)); err != nil {
		return nil, err
	}
	doc, err := p.eng.parse(ctx, src)
	if err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	if m == core.MethodAuto {
		dec := plan.Choose(p.compiled, nil)
		m = dec.Method
		if tr != nil {
			tr.SetPlan(&obs.PlanTrace{Method: string(m), Auto: true, Reason: dec.Reason})
		}
	}
	if tr != nil {
		tr.SetMethod(string(m))
		if ix := tree.IndexOf(doc); ix != nil && ix.Live > 0 {
			// O(1) for a chain head (a store snapshot), which owns and
			// counts every node it reaches.
			tr.SetDocNodes(ix.Live)
		} else {
			// A plain index may not cover its whole tree (a derived tree
			// shares subtrees other indexes own), so count the nodes.
			// Deferred: only a trace that is actually rendered
			// (?explain=1, a slow-query line) pays for the O(n) walk.
			tr.SetDocNodesFunc(doc.Size)
		}
	}
	start := time.Now()
	out, err := p.compiled.EvalContext(ctx, doc, m)
	d := time.Since(start)
	mEvalSeconds.With(string(m)).Observe(d)
	if tr != nil {
		tr.AddEval(d)
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
