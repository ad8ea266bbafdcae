package compose

import (
	"context"

	"xtq/internal/automaton"
	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/xerr"
)

// Stack is the incremental-maintenance evaluator of a transform stack:
// a fused top-down pass that applies every layer during one traversal
// of the source document and memoizes, per visited element, the state
// of all layer automata together with the node's image in the final
// view. The memo is what makes delta maintenance possible: after a
// commit, subtrees the update provably did not touch can reuse their
// memoized images without being traversed again (EvalDelta).
//
// Fragment X qualifiers look only downward, so the memo's rule "same
// subtree + same entering states ⇒ same image" holds with them; but a
// qualifier of layer i > 0 reads layer i−1's output, which the fused
// walk has not built when it enters a node. NewStack therefore starts a
// new segment at every qualified layer above the first: a fused walk of
// its own over the previous segment's output (one intermediate view),
// with a memo of its own, whose first layer checks qualifiers on the
// segment's input node (NFA.StepDirect).
//
// A Stack is immutable and safe for concurrent use; all evaluation
// state lives in per-call values.
type Stack struct {
	layers []*core.Compiled // this segment's layers
	// empty holds one canonical empty state set per layer: the vector
	// entries for layers that can no longer match (and for layers
	// already applied when descending into a constant element).
	empty  []automaton.StateSet
	direct bool   // the segment's first layer has qualifiers
	next   *Stack // the segment run over this one's output; nil for the last
}

// NewStack builds the fused evaluator for a transform stack. It fails
// with a Compile error when the stack is empty or a layer is nil.
func NewStack(layers []*core.Compiled) (*Stack, error) {
	if len(layers) == 0 {
		return nil, xerr.New(xerr.Compile, "", "compose: view stack is empty")
	}
	var next *Stack
	end := len(layers)
	for i := end - 1; i >= 0; i-- {
		if layers[i] == nil {
			return nil, xerr.New(xerr.Compile, "", "compose: nil transform at layer %d", i)
		}
		direct := layers[i].NFA.HasQualifiers()
		if i > 0 && !direct {
			continue
		}
		seg := &Stack{
			layers: append([]*core.Compiled(nil), layers[i:end]...),
			empty:  make([]automaton.StateSet, end-i),
			direct: direct,
			next:   next,
		}
		for j, l := range seg.layers {
			seg.empty[j] = l.NFA.NewSet()
		}
		next, end = seg, i
	}
	return next, nil
}

// Memo is the per-evaluation memo of a Stack run: for every element
// the traversal visited, the per-layer automaton state vector in force
// when the element was entered and the element's image in the view
// (nil when some layer deleted it). Entries are keyed by the source
// document's node pointers, so a Memo is only meaningful against the
// exact tree it was computed over — the store's snapshot-adoption
// bridge (see store.CommitEvent.Bridge) is what carries keys from one
// version to the next.
type Memo struct {
	s    *Stack // the segment whose run built the memo
	m    map[*tree.Node]*memoEntry
	next *Memo // the next segment's memo, keyed by this one's output
}

type memoEntry struct {
	states []automaton.StateSet // per-layer sets entered at the node
	image  *tree.Node           // image in the segment's output; nil = deleted
}

// Len reports the number of memoized elements, over every segment.
func (m *Memo) Len() int {
	n := 0
	for ; m != nil; m = m.next {
		n += len(m.m)
	}
	return n
}

// stackRun is the per-evaluation state of a Stack traversal.
type stackRun struct {
	s    *Stack
	can  *core.Canceler
	memo *Memo // being built
	old  *Memo // previous version's memo (delta runs only)
	// bad is set when the delta walk finds newDoc and bridge out of
	// shape — a defensive bail-out; the caller falls back to a full
	// recomposition.
	bad    bool
	stats  *ViewStats // the work of every segment so far
	layers []Stats    // this segment's part of stats.Layers
}

// Eval evaluates the stack over doc — a document node — and returns
// the final view, the memo of the run and its statistics. The result
// is byte-identical to Plan.Materialize over the same stack; unchanged
// subtrees are shared with doc by pointer, and constant elements of
// the layers may be aliased rather than copied, so the result must be
// treated as strictly immutable (serve it, never index or mutate it).
func (s *Stack) Eval(ctx context.Context, doc *tree.Node) (*tree.Node, *Memo, ViewStats, error) {
	return s.run(ctx, doc, nil, nil)
}

// EvalDelta re-evaluates the stack over newDoc after a commit,
// reusing oldMemo — the memo of the previous version's evaluation —
// wherever the commit provably left a subtree untouched. bridge is the
// update evaluator's output before snapshot adoption: it has exactly
// newDoc's shape, but its unchanged subtrees are the previous
// snapshot's node pointers, which is what connects newDoc's nodes to
// oldMemo's keys. newDoc may be its own bridge: a snapshot of the same
// path-copied chain shares every untouched subtree with the memo's
// version by pointer, whichever version is newer, and a snapshot that
// shares nothing is walked in full. ok is false when the walk could not
// align the trees, or oldMemo is another stack's (the caller should
// fall back to Eval); the other results are then meaningless.
func (s *Stack) EvalDelta(ctx context.Context, newDoc, bridge *tree.Node, oldMemo *Memo) (*tree.Node, *Memo, ViewStats, bool, error) {
	if bridge == nil || oldMemo == nil || oldMemo.s != s {
		return nil, nil, ViewStats{}, false, nil
	}
	view, memo, stats, err := s.run(ctx, newDoc, bridge, oldMemo)
	if err != nil {
		return nil, nil, stats, false, err
	}
	if view == nil { // bad shape
		return nil, nil, stats, false, nil
	}
	return view, memo, stats, true, nil
}

// run evaluates the segments in order: each runs over the previous
// one's output, which in a delta run is its own bridge, because every
// image a segment spliced is a node of its previous output.
func (s *Stack) run(ctx context.Context, doc, bridge *tree.Node, oldMemo *Memo) (*tree.Node, *Memo, ViewStats, error) {
	var (
		stats ViewStats
		first *Memo
		link  = &first
	)
	for seg := s; seg != nil; seg = seg.next {
		out, memo, err := seg.runSegment(ctx, doc, bridge, oldMemo, &stats)
		if out == nil || err != nil {
			return nil, nil, stats, err
		}
		*link, link = memo, &memo.next
		if oldMemo != nil {
			bridge, oldMemo = out, oldMemo.next
		}
		doc = out
	}
	return doc, first, stats, nil
}

// runSegment evaluates segment s over doc, adding its work to stats
// and appending its layers to stats.Layers. A nil result without an
// error means doc and bridge are out of shape.
func (s *Stack) runSegment(ctx context.Context, doc, bridge *tree.Node, oldMemo *Memo, stats *ViewStats) (*tree.Node, *Memo, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	off := len(stats.Layers)
	stats.Layers = append(stats.Layers, make([]Stats, len(s.layers))...)
	size := 0
	if oldMemo != nil {
		// A delta run memoizes about what the previous run did.
		size = len(oldMemo.m)
	}
	r := &stackRun{
		s:      s,
		can:    core.NewCanceler(ctx),
		memo:   &Memo{s: s, m: make(map[*tree.Node]*memoEntry, size)},
		old:    oldMemo,
		stats:  stats,
		layers: stats.Layers[off:],
	}
	init := make([]automaton.StateSet, len(s.layers))
	for i, l := range s.layers {
		init[i] = l.NFA.InitialSet()
	}
	if bridge != nil && (bridge.Kind != doc.Kind || len(bridge.Children) != len(doc.Children)) {
		return nil, nil, nil
	}
	result := tree.NewDocument(nil)
	changed := false
	for i, ch := range doc.Children {
		if ch.Kind != tree.Element {
			result.Children = append(result.Children, ch)
			continue
		}
		var bch *tree.Node
		if bridge != nil {
			bch = bridge.Children[i]
		}
		out := r.eval(ch, bch, init, true)
		if r.bad {
			return nil, nil, nil
		}
		if out == nil {
			changed = true
			continue
		}
		if out != ch {
			changed = true
		}
		result.Children = append(result.Children, out)
	}
	if err := r.can.Err(); err != nil {
		return nil, nil, err
	}
	if !changed {
		result = doc // identity: share the document node like topDown
	}
	return result, r.memo, nil
}

// eval applies layers to element n, whose label has not been consumed
// yet; states is the per-layer state vector in force at n (the sets
// entered at n's parent). b is n's counterpart in the bridge tree (nil
// outside delta runs and inside constants), memoize records the node
// in the run's memo (false inside constant elements, whose nodes are
// shared across evaluations and never looked up again). It returns
// n's image in the segment's output, nil when a layer deletes it.
func (r *stackRun) eval(n, b *tree.Node, states []automaton.StateSet, memoize bool) *tree.Node {
	if r.bad || r.can.Stopped() {
		return n
	}
	dead := true
	for _, s := range states {
		if !s.Empty() {
			dead = false
			break
		}
	}
	if dead {
		// No layer can match at or below n: the subtree passes through
		// the whole stack unchanged. It is not memoized: the memo is
		// only consulted with a live vector, which never equals this one.
		return n
	}
	if b != nil {
		if e := r.old.m[b]; e != nil && statesEqual(e.states, states) {
			// b is in the old memo, so it is a node of the previous
			// snapshot that the update returned unchanged — n's subtree
			// is byte-identical to the one e.image was computed over,
			// and the automata arrive in the same states: splice the
			// old image without descending. Entries are immutable, so
			// the new memo keeps the old one.
			r.stats.ReusedSubtrees++
			if memoize {
				r.memo.m[n] = e
			}
			return e.image
		}
	}
	r.stats.NodesVisited++

	layers := r.s.layers
	entered := make([]automaton.StateSet, len(layers))
	label := n.Label
	renamed := false
	var pending []int // layers that matched n with Insert, in order
	for i, l := range layers {
		in := states[i]
		if in.Empty() {
			entered[i] = in
			continue
		}
		r.layers[i].NodesVisited++
		var out automaton.StateSet
		if i == 0 && r.s.direct {
			// The segment's first layer reads its own input: label is
			// still n's, and the qualifiers see n's subtree.
			out = l.NFA.StepDirect(in, n)
		} else {
			out = l.NFA.Step(in, label, nil)
		}
		entered[i] = out
		if !l.NFA.Matches(out) {
			continue
		}
		u := &l.Query.Update
		switch u.Op {
		case core.Delete:
			if memoize {
				r.memo.m[n] = &memoEntry{states: states, image: nil}
			}
			return nil
		case core.Replace:
			// The constant takes n's place, so the remaining layers
			// step into it from their pre-n states.
			img := r.evalConst(l.Elem(), i, states)
			if memoize {
				r.memo.m[n] = &memoEntry{states: states, image: img}
			}
			return img
		case core.Rename:
			label = u.Label
			renamed = true
		case core.Insert:
			pending = append(pending, i)
		}
	}

	var newChildren []*tree.Node
	changed := false
	for i, ch := range n.Children {
		if ch.Kind != tree.Element {
			if changed {
				newChildren = append(newChildren, ch)
			}
			continue
		}
		var bch *tree.Node
		if b != nil {
			if i >= len(b.Children) || b.Children[i].Kind != tree.Element {
				r.bad = true
				return n
			}
			bch = b.Children[i]
		}
		out := r.eval(ch, bch, entered, memoize)
		if r.bad {
			return n
		}
		if !changed && out != ch {
			changed = true
			newChildren = make([]*tree.Node, 0, len(n.Children)+len(pending))
			newChildren = append(newChildren, n.Children[:i]...)
		}
		if changed && out != nil {
			newChildren = append(newChildren, out)
		}
	}
	for _, i := range pending {
		// The inserted constant is a child of n in layer i's output,
		// entered by the later layers from their post-n states.
		img := r.evalConst(layers[i].Elem(), i, entered)
		if img == nil {
			continue // a later layer deleted the inserted element
		}
		if !changed {
			changed = true
			newChildren = make([]*tree.Node, 0, len(n.Children)+len(pending))
			newChildren = append(newChildren, n.Children...)
		}
		newChildren = append(newChildren, img)
	}

	if !changed && !renamed {
		if memoize {
			r.memo.m[n] = &memoEntry{states: states, image: n}
		}
		return n
	}
	if !changed {
		// Relabel only: private child slice, as in topDown.
		newChildren = append([]*tree.Node(nil), n.Children...)
	}
	out := &tree.Node{Kind: tree.Element, Sym: n.Sym, Label: label, Attrs: n.Attrs, Children: newChildren}
	if renamed {
		out.Sym = tree.NoSym
	}
	r.stats.Materialized++
	if memoize {
		r.memo.m[n] = &memoEntry{states: states, image: out}
	}
	return out
}

// evalConst evaluates the constant element of layer owner through the
// layers after it: the vector restricts states to layers > owner
// (earlier layers never see their own or earlier constants). Constant
// subtrees that no later layer can touch are aliased, not copied: c is
// the layer's frozen constant (core.Compiled.Elem), so every node of a
// view that is still unstamped belongs to this one evaluation.
func (r *stackRun) evalConst(c *tree.Node, owner int, states []automaton.StateSet) *tree.Node {
	restricted := make([]automaton.StateSet, len(states))
	for j := range states {
		if j <= owner {
			restricted[j] = r.s.empty[j]
		} else {
			restricted[j] = states[j]
		}
	}
	img := r.eval(c, nil, restricted, false)
	if img != nil {
		r.layers[owner].Materialized += img.Size()
	}
	return img
}

func statesEqual(a, b []automaton.StateSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
