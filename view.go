package xtq

import (
	"context"
	"strings"

	"xtq/internal/compose"
	"xtq/internal/core"
	"xtq/internal/xquery"
)

// ViewStats reports the work of one stacked-view evaluation: totals plus
// one entry per transform layer (LayerStats), substantiating the paper's
// "touches only the relevant region" claim per layer. It is returned by
// value from PreparedView.Eval, so results of concurrent evaluations
// never share state.
type ViewStats = compose.ViewStats

// LayerStats counts the virtual nodes one transform layer's automaton
// consumed and the result nodes built while that layer was live.
type LayerStats = compose.Stats

// View is a virtual document defined by a stack of one or more transform
// queries applied in order: the first transforms the source document,
// each later one transforms the previous layer's virtual output. Stacks
// express the composition chains of the paper's applications — a
// security view over a virtual update over a hypothetical state —
// without materializing any layer:
//
//	v, err := eng.View(
//	    `transform copy $a := doc("d") modify do insert <audit/> into $a/db/part return $a`,
//	    `transform copy $a := doc("d") modify do delete $a/db/part/price return $a`,
//	)
//	pv, err := v.Prepare(`for $x in /db/part return <row>{$x/pname}</row>`)
//	res, stats, err := pv.Eval(ctx, xtq.FileSource("db.xml"))
//
// A View is immutable and safe for concurrent use; the compiled
// transforms inside are shared through the engine's query cache.
type View struct {
	eng   *Engine
	stack []*Prepared
	key   string
}

// View builds a virtual view from a stack of transform query sources,
// compiling each through the engine's query cache. At least one
// transform is required.
func (e *Engine) View(transformSrcs ...string) (*View, error) {
	if err := e.validateMethod(); err != nil {
		return nil, err
	}
	if len(transformSrcs) == 0 {
		return nil, &Error{Kind: KindCompile, Msg: "xtq: a view requires at least one transform query"}
	}
	stack := make([]*Prepared, len(transformSrcs))
	keys := make([]string, len(transformSrcs))
	for i, src := range transformSrcs {
		p, err := e.Prepare(src)
		if err != nil {
			return nil, err
		}
		stack[i] = p
		// The canonical rendering, not the raw source, keys the view:
		// textual variants of the same query share cached plans.
		keys[i] = p.String()
	}
	return &View{eng: e, stack: stack, key: strings.Join(keys, "\x1f")}, nil
}

// Layers returns the number of transform layers in the view stack.
func (v *View) Layers() int { return len(v.stack) }

// Layer returns the prepared transform of layer i (0 is applied first).
func (v *View) Layer(i int) *Prepared { return v.stack[i] }

// String renders the view stack, innermost transform first.
func (v *View) String() string {
	var b strings.Builder
	b.WriteString("view[")
	for i, p := range v.stack {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(p.String())
	}
	b.WriteString("]")
	return b.String()
}

// Materialize evaluates the transform stack over src layer by layer with
// the engine's method and returns the fully materialized view — the
// baseline the virtual machinery avoids; useful for exporting a view or
// validating one against Prepare/Eval.
func (v *View) Materialize(ctx context.Context, src Source) (*Node, error) {
	doc, err := v.eng.parse(ctx, src)
	if err != nil {
		return nil, err
	}
	for _, p := range v.stack {
		doc, err = p.Eval(ctx, doc)
		if err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// Prepare parses a user query and composes it with the view stack into a
// goroutine-safe PreparedView, retrieving the composition plan from the
// engine's plan cache when the same (view stack, user query) pair was
// prepared before.
func (v *View) Prepare(userQuerySrc string) (*PreparedView, error) {
	q, err := xquery.Parse(userQuerySrc)
	if err != nil {
		return nil, classify(err, KindParse)
	}
	return v.prepare(q)
}

// PrepareQuery composes an already-parsed user query with the view
// stack, caching by the query's canonical rendering. Like
// Engine.PrepareQuery, the cached plan never aliases q when the
// rendering does not round-trip, so the caller remains free to mutate q.
func (v *View) PrepareQuery(q *UserQuery) (*PreparedView, error) {
	if q == nil {
		return nil, &Error{Kind: KindCompile, Msg: "xtq: nil user query"}
	}
	if err := q.Validate(); err != nil {
		return nil, classify(err, KindCompile)
	}
	own, err := xquery.Parse(q.String())
	if err != nil {
		// The rendering does not round-trip (e.g. a constant containing
		// a quote character). Build the plan from the live query and
		// skip the shared cache so its entries never alias
		// caller-mutable state.
		return v.newPreparedView(q, false)
	}
	return v.prepare(own)
}

// prepare builds or retrieves the PreparedView for a user query the view
// owns (no caller aliases it).
func (v *View) prepare(q *UserQuery) (*PreparedView, error) {
	return v.newPreparedView(q, true)
}

func (v *View) newPreparedView(q *UserQuery, cache bool) (*PreparedView, error) {
	key := v.key + "\x1f\x1f" + q.String()
	if cache {
		if p, ok := v.eng.plans.get(key); ok {
			return &PreparedView{view: v, plan: p.(*compose.Plan)}, nil
		}
	}
	layers := make([]*core.Compiled, len(v.stack))
	for i, p := range v.stack {
		layers[i] = p.compiled
	}
	plan, err := compose.NewPlan(layers, q)
	if err != nil {
		return nil, classify(err, KindCompile)
	}
	if cache {
		v.eng.plans.add(key, plan)
	}
	return &PreparedView{view: v, plan: plan}, nil
}

// PreparedView is a user query composed with a view stack: the
// composition plan is built (or fetched from the engine's plan cache)
// once, then evaluated over any number of documents. A PreparedView is
// immutable and safe for concurrent use by multiple goroutines — every
// evaluation carries its own state and statistics are returned by value.
type PreparedView struct {
	view *View
	plan *compose.Plan
}

// View returns the view stack this query was prepared against.
func (pv *PreparedView) View() *View { return pv.view }

// UserQuery returns the composed user query. Treat it as read-only: the
// plan (possibly shared through the engine cache) reflects the query at
// Prepare time.
func (pv *PreparedView) UserQuery() *UserQuery { return pv.plan.User() }

// String identifies the prepared composition.
func (pv *PreparedView) String() string { return pv.plan.String() }

// Eval answers the user query over the virtual view of src in a single
// pass — no layer of the stack is materialized — returning a document
// with a <result> root and the per-layer statistics of the run. src is
// any Source; an already-parsed *Node evaluates directly. Cancelling ctx
// aborts navigation at node granularity with a KindEval error satisfying
// errors.Is(err, context.Canceled).
func (pv *PreparedView) Eval(ctx context.Context, src Source) (*Node, ViewStats, error) {
	doc, err := pv.view.eng.parse(ctx, src)
	if err != nil {
		return nil, ViewStats{}, err
	}
	out, vs, err := pv.plan.Eval(ctx, doc)
	if err != nil {
		return nil, vs, classify(err, KindEval)
	}
	return out, vs, nil
}

// EvalSequential answers the same query the naive way: materialize every
// layer of the stack with the engine's method, then run the user query
// over the final tree. It is the baseline Eval is measured against and
// the oracle the property tests compare Eval to.
func (pv *PreparedView) EvalSequential(ctx context.Context, src Source) (*Node, error) {
	doc, err := pv.view.eng.parse(ctx, src)
	if err != nil {
		return nil, err
	}
	out, err := pv.plan.EvalSequential(ctx, doc, pv.view.eng.method)
	if err != nil {
		return nil, classify(err, KindEval)
	}
	return out, nil
}
