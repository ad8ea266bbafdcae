package xtq

import (
	"context"
	"io"
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
	doc, m, err := p.begin(ctx, src, m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := p.compiled.EvalContext(ctx, doc, m)
	p.evaluated(ctx, m, start)
	if err != nil {
		return nil, classify(err, KindEval)
	}
	return out, nil
}

// EvalTo evaluates the query over src with the engine's method and
// writes the transformed document to w, exactly the bytes Eval's result
// serializes to. Under MethodTopDown (and MethodAuto) the walk writes its
// answer as it decides it and builds no result tree (core.EmitTopDown):
// unchanged subtrees go out as copies from their chain's image. Over a
// store snapshot the answer is also recorded, on the second run of this
// Prepared over the version once its chain has an image, and every later
// run replays the recording instead of walking; the context's trace says
// which ("walk", "record" or "replay") before the first byte is written,
// and a replay visits no node. Any other method runs Eval and serializes
// the result. The output is buffered in 64 KiB spills, so a failure
// before the first spill has written nothing to w; the first write error
// stops the walk (or the replay) and is returned as KindIO. Cancellation
// is a KindEval error, as for Eval.
func (p *Prepared) EvalTo(ctx context.Context, src Source, w io.Writer) error {
	if core.Resolve(p.eng.method) != core.MethodTopDown {
		res, err := p.Eval(ctx, src)
		if err != nil {
			return err
		}
		return classify(res.WriteXML(w), KindIO)
	}
	doc, m, err := p.begin(ctx, src, p.eng.method)
	if err != nil {
		return err
	}
	start := time.Now()
	answer, err := core.EmitTopDown(ctx, p.compiled, doc, w)
	p.evaluated(ctx, m, start)
	if err != nil {
		return classify(err, KindIO)
	}
	mQueryAnswers[answer].Inc()
	return nil
}

// begin is the part of an evaluation before the walk: it validates m,
// parses src, resolves MethodAuto (reporting the decision) and notes the
// method and document size on the context's trace. It returns the
// document and the method that runs.
func (p *Prepared) begin(ctx context.Context, src Source, m Method) (*Node, Method, error) {
	if _, err := core.ParseMethod(string(m)); err != nil {
		return nil, m, err
	}
	doc, err := p.eng.parse(ctx, src)
	if err != nil {
		return nil, m, err
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
	return doc, m, nil
}

// evaluated records an evaluation of method m that began at start on
// the eval histogram and the context's trace.
func (p *Prepared) evaluated(ctx context.Context, m Method, start time.Time) {
	d := time.Since(start)
	mEvalSeconds.With(string(m)).Observe(d)
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.AddEval(d)
	}
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
