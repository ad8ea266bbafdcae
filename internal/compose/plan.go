// Package compose implements §4 of Fan, Cong & Bohannon (SIGMOD 2007):
// composing a user query Q with a transform query Qt into a single query
// Qc with Qc(T) = Q(Qt(T)), evaluated in one pass over the input document
// without materializing Qt(T) — generalized here to *stacks* of transform
// queries, so a security view defined over a virtual update over a
// hypothetical state evaluates in the same single pass.
//
// The Compose Method treats the user query's path expressions as "words"
// fed to the selecting NFA Mp of each transform query: while Q navigates
// T, the evaluator carries one Mp state set per layer alongside every
// context node and applies each embedded update's effect exactly where Q
// looks —
//
//   - a node whose transition enters a layer's final state under a delete
//     is skipped (it does not exist in that layer's output; the
//     "if empty($y[q]) … else ()" conditional of example Q1c);
//   - under an insert, the constant element e appears as a virtual last
//     child of matched nodes and is navigated — and transformed by the
//     layers above — like any other child;
//   - under replace/rename the matched node is seen as the constant
//     element / under its new label, and the relabeled node is what the
//     next layer's automaton consumes;
//   - subtrees returned by the query are materialized on demand by one
//     walk that applies every remaining layer (the paper's embedded
//     topDown() user function), sharing everything no update can touch;
//   - as soon as every layer's state set dies (the user query navigates
//     where all updates are "disjoint", §4), the evaluator drops into
//     plain navigation with zero overhead.
//
// The entry point is Plan: an immutable composition plan whose Eval
// creates all per-run state afresh, so one Plan serves any number of
// goroutines. Plan.EvalSequential is the Naive Composition Method, the
// baseline the single pass is measured against.
//
// The paper presents this rewriting as XQuery source text; XQueryText
// renders that form for one transform layer, while Eval executes the
// identical plan directly. Both follow the same state discipline, so the
// measured behaviour (single pass, no copying, disjointness pruning) is
// the algorithm's.
package compose

import (
	"context"
	"fmt"
	"strings"

	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/xerr"
	"xtq/internal/xquery"
)

// Plan is an immutable composition plan: a stack of one or more transform
// queries (applied in order: the first layer transforms the source
// document, each later layer transforms the previous layer's virtual
// output) composed with a user query evaluated over the top of the stack.
// This generalizes the Compose Method of §4 from one transform query to
// the view chains its applications imply — a security view defined over a
// virtual update over a hypothetical state — while keeping the single
// pass: no layer is ever materialized.
//
// A Plan carries no evaluation state. Eval builds a fresh run per call,
// so one Plan may be evaluated from any number of goroutines
// concurrently; construction cost is validation only (the compiled
// transforms are shared with their engine).
type Plan struct {
	layers []*core.Compiled
	user   *xquery.UserQuery
}

// Stats counts work done by one evaluation, to substantiate the "accesses
// only the relevant part of the document" claim.
type Stats struct {
	NodesVisited int // virtual nodes enumerated during navigation
	Materialized int // nodes materialized by the embedded topDown
}

// ViewStats reports the work of one stacked-view evaluation: totals over
// the whole run, plus one Stats per transform layer. Layer i's
// NodesVisited counts the virtual nodes its automaton consumed; its
// Materialized counts result nodes built while that layer was still live
// (could still rewrite the subtree) plus, for its constant elements,
// the copied subtree sizes. ViewStats is returned by value, so callers
// may retain it across concurrent evaluations.
type ViewStats struct {
	Stats
	Layers []Stats
	// ReusedSubtrees counts memoized subtree images a Stack delta run
	// spliced into the result without traversal (zero on full runs).
	ReusedSubtrees int
	// DeltaCommits and FullCommits count, cumulatively per maintained
	// materialization, how many commits were absorbed by the delta
	// path versus full recomposition. They are filled in by the ivm
	// maintenance layer, not by single evaluations.
	DeltaCommits int
	FullCommits  int
}

// NewPlan builds the composition of a transform stack and a user query.
// The layers slice is copied; the compiled transforms themselves are
// immutable and shared.
func NewPlan(layers []*core.Compiled, user *xquery.UserQuery) (*Plan, error) {
	if len(layers) == 0 {
		return nil, xerr.New(xerr.Compile, "", "compose: view stack is empty")
	}
	for i, l := range layers {
		if l == nil {
			return nil, xerr.New(xerr.Compile, "", "compose: nil transform at layer %d", i)
		}
	}
	if user == nil {
		return nil, xerr.New(xerr.Compile, "", "compose: nil user query")
	}
	if err := user.Validate(); err != nil {
		return nil, xerr.Wrap(xerr.Compile, err)
	}
	return &Plan{layers: append([]*core.Compiled(nil), layers...), user: user}, nil
}

// NumLayers returns the number of transform layers in the stack.
func (p *Plan) NumLayers() int { return len(p.layers) }

// Layer returns the compiled transform of layer i. Treat it as read-only.
func (p *Plan) Layer(i int) *core.Compiled { return p.layers[i] }

// User returns the user query. Treat it as read-only.
func (p *Plan) User() *xquery.UserQuery { return p.user }

// Eval evaluates the composition over doc in a single pass, returning a
// document with the <result> root of the paper's examples and the
// statistics of the run. Cancelling ctx aborts navigation at node
// granularity. Eval is safe for concurrent use: all per-run state lives
// in a run value created here.
func (p *Plan) Eval(ctx context.Context, doc *tree.Node) (*tree.Node, ViewStats, error) {
	// Navigation polls cancellation every few hundred nodes, which a
	// small document may never reach; check up front so an
	// already-cancelled context fails deterministically.
	if ctx != nil && ctx.Err() != nil {
		return nil, ViewStats{}, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	r := newRun(p, core.NewCanceler(ctx), doc)
	root := vnode{n: doc, states: p.initialStates()}
	result := tree.NewElement("result")
	for _, x := range r.selectPathAt(root, p.user.Path.Steps, len(p.layers)) {
		if !r.condsHold(x) {
			continue
		}
		result.Children = append(result.Children, r.instantiate(p.user.Return, x)...)
	}
	if err := r.can.Err(); err != nil {
		return nil, r.stats, err
	}
	return tree.NewDocument(result), r.stats, nil
}

// Materialize evaluates the transform stack sequentially with method m,
// materializing every intermediate view, and returns the final view (no
// user query). It is the baseline the single-pass machinery is measured
// against and the correctness oracle of the property tests.
func (p *Plan) Materialize(ctx context.Context, doc *tree.Node, m core.Method) (*tree.Node, error) {
	cur := doc
	for _, l := range p.layers {
		var err error
		cur, err = l.EvalContext(ctx, cur, m)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// EvalSequential is the Naive Composition Method generalized to stacks:
// materialize each layer in turn with method m, then run the user query
// over the final materialized view.
func (p *Plan) EvalSequential(ctx context.Context, doc *tree.Node, m core.Method) (*tree.Node, error) {
	mid, err := p.Materialize(ctx, doc, m)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	return p.user.Eval(mid)
}

// initialStates returns one initial state set per layer — the sets in
// force at the document node of every view in the stack.
func (p *Plan) initialStates() []stateSet {
	out := make([]stateSet, len(p.layers))
	for i, l := range p.layers {
		out[i] = l.NFA.InitialSet()
	}
	return out
}

// String identifies the plan.
func (p *Plan) String() string {
	var b strings.Builder
	b.WriteString("view(")
	for i, l := range p.layers {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprint(&b, l.Query)
	}
	b.WriteString(" | ")
	fmt.Fprint(&b, p.user)
	b.WriteString(")")
	return b.String()
}
