package core

import (
	"context"
	"io"

	"xtq/internal/automaton"
	"xtq/internal/obs"
	"xtq/internal/tree"
	"xtq/internal/xerr"
	"xtq/internal/xpath"
)

// QualChecker is checkp() of §3.3: it decides whether the qualifier of an
// automaton state holds at a node. The topDown algorithm is parameterized
// over it — direct recursive evaluation yields the GENTOP method, constant
// -time lookups into bottomUp annotations yield the twoPass (TD-BU) method.
type QualChecker interface {
	Check(st *automaton.State, n *tree.Node) bool
}

// DirectChecker evaluates qualifiers by recursive descent (the "native
// qualifier evaluation" strategy of the paper's GENTOP configuration).
type DirectChecker struct{}

// Check implements QualChecker.
func (DirectChecker) Check(st *automaton.State, n *tree.Node) bool {
	for _, q := range st.Quals {
		if !xpath.EvalQual(n, q) {
			return false
		}
	}
	return true
}

// AnnotChecker answers qualifier checks from the dense sat-vector
// annotations produced by the bottomUp pass, in constant time per check:
// one ordinal lookup into the annotation table. Nodes outside the
// annotated document — which cannot occur when the annotation pass ran
// over the same document and automaton, since the bottomUp state sets are
// supersets of topDown's — fall back to direct evaluation; the event is
// counted so tests can assert the invariant.
type AnnotChecker struct {
	Ann       *Annotations
	Fallbacks int
}

// Check implements QualChecker.
func (a *AnnotChecker) Check(st *automaton.State, n *tree.Node) bool {
	if len(st.Quals) == 0 {
		return true
	}
	if sat := a.Ann.SatAt(n); sat != nil {
		return sat[st.QualID]
	}
	a.Fallbacks++
	return DirectChecker{}.Check(st, n)
}

// tdRun is the per-evaluation state of topDown: the per-document symbol
// binding and a per-depth pool of successor state sets, so the traversal
// allocates nothing on the unchanged parts of the document.
type tdRun struct {
	c     *Compiled
	idx   *tree.Index
	b     *automaton.Binding
	check QualChecker
	can   *Canceler
	// sets is the successor-set scratch: the words of depth d's set are
	// sets[d*words : (d+1)*words].
	sets  []uint64
	words int
	open  bool // emitNode: a start tag awaits its '>'
}

// setDepth is the number of depths the first scratch block holds.
const setDepth = 32

// setAt returns the successor-set scratch of depth; its contents are
// garbage (StepInto clears it).
func (r *tdRun) setAt(depth int) automaton.StateSet {
	lo := depth * r.words
	if lo+r.words > len(r.sets) {
		// Grow into a fresh block without copying: the ancestors on the
		// walk's path still hold their sets in the old one.
		r.sets = make([]uint64, max(2*len(r.sets), lo+r.words, setDepth*r.words))
	}
	return r.sets[lo : lo+r.words : lo+r.words]
}

// visit is topDown's decision at element n, which the traversal entered
// from the parent-level state set s (Fig. 3), shared by the result-
// building walk (processNode) and the writing one (emitNode): matched
// reports whether n is selected, and below is the state set n's element
// children are entered from, or nil when none of them needs a visit.
// That is so when no state is alive below n (the paper's prune, lines
// 2-3), when the walk is cancelled, and when no label a live state could
// still select occurs below n (Binding.Needed against the subtree label
// mask of tree.Index.Below). With matched false and below nil, n's
// subtree is unchanged.
func (r *tdRun) visit(n *tree.Node, s automaton.StateSet, depth int) (matched bool, below automaton.StateSet) {
	if r.can.Stopped() {
		return false, nil
	}
	next := r.setAt(depth)
	m := r.b.M
	r.b.StepInto(s, r.idx.SymOf(n), n.Label, func(id int) bool { return r.check.Check(&m.States[id], n) }, next)
	if next.Empty() {
		return false, nil
	}
	if r.b.Needed(next)&r.idx.Below(n) == 0 {
		return m.Matches(next), nil
	}
	return m.Matches(next), next
}

// processNode applies the compiled update below (and at) element n,
// entered from state set s. It returns (replacement, kept): kept is
// false when n is deleted; otherwise the replacement is the original
// pointer when the update does not change n's subtree, or a rebuilt
// node. The child slice is copied lazily, so unchanged subtrees are
// returned by reference without allocating. This is the recursive body
// of algorithm topDown (Fig. 3).
func (r *tdRun) processNode(n *tree.Node, s automaton.StateSet, depth int) (*tree.Node, bool) {
	matched, below := r.visit(n, s, depth)
	u := &r.c.Query.Update
	if matched {
		switch u.Op {
		case Delete:
			// Prune without loading the subtree.
			return nil, false
		case Replace:
			return r.c.elem, true
		}
	}
	var newChildren []*tree.Node
	changed := false
	children := n.Children
	if below == nil {
		children = nil // no child needs a visit
	}
	for i, ch := range children {
		if ch.Kind != tree.Element {
			if changed {
				newChildren = append(newChildren, ch)
			}
			continue
		}
		out, kept := r.processNode(ch, below, depth+1)
		if !changed && (!kept || out != ch) {
			// First divergence: copy the unchanged prefix.
			changed = true
			newChildren = make([]*tree.Node, 0, len(n.Children)+1)
			newChildren = append(newChildren, n.Children[:i]...)
		}
		if changed && kept {
			newChildren = append(newChildren, out)
		}
	}
	if matched && u.Op == Insert {
		if !changed {
			changed = true
			newChildren = make([]*tree.Node, 0, len(n.Children)+1)
			newChildren = append(newChildren, n.Children...)
		}
		newChildren = append(newChildren, r.c.elem)
	}
	relabel := matched && u.Op == Rename
	if !changed && !relabel {
		return n, true
	}
	if !changed {
		// Relabel only: the children are untouched, but the node gets a
		// private child slice so the output never aliases the input's
		// spare capacity.
		newChildren = append([]*tree.Node(nil), n.Children...)
	}
	out := &tree.Node{Kind: tree.Element, Sym: n.Sym, Label: n.Label, Attrs: n.Attrs, Children: newChildren}
	if relabel {
		out.Label = u.Label
		out.Sym = tree.NoSym
	}
	return out, true
}

// emitNode writes to e what processNode's result for n serializes to,
// building nothing: an unchanged subtree goes out as e.Node(n), which
// copies its image range, a deleted one as nothing, a replaced one as
// the constant's one serialization, and a renamed or inserted-into one
// as its own tags around its children's output. open marks that a start
// tag has been written whose '>' is still due: an element all of whose
// children are deleted must close as "/>", so the '>' waits for its
// first content.
func (r *tdRun) emitNode(e *tree.Emitter, n *tree.Node, s automaton.StateSet, depth int) {
	matched, below := r.visit(n, s, depth)
	if r.can.Err() != nil {
		return
	}
	u := &r.c.Query.Update
	if matched {
		switch u.Op {
		case Delete:
			return
		case Replace:
			r.content(e)
			e.Shared(r.c.elemBytes())
			return
		}
	} else if below == nil {
		r.content(e)
		e.Node(n)
		return
	}
	r.content(e)
	label := n.Label
	if matched && u.Op == Rename {
		label = u.Label
	}
	e.StartTag(label, n.Attrs)
	r.open = true
	for _, ch := range n.Children {
		if ch.Kind == tree.Element && below != nil {
			r.emitNode(e, ch, below, depth+1)
		} else {
			r.content(e)
			e.Node(ch)
		}
		if e.Err() != nil || r.can.Err() != nil {
			return
		}
	}
	if matched && u.Op == Insert {
		r.content(e)
		e.Shared(r.c.elemBytes())
	}
	if r.open {
		e.Raw("/>")
		r.open = false
	} else {
		e.EndTag(label)
	}
}

// content writes the '>' of an open start tag, before the tag's first
// content.
func (r *tdRun) content(e *tree.Emitter) {
	if r.open {
		e.Raw(">")
		r.open = false
	}
}

// newTDRun sets up topDown over doc, indexing it on first use. It
// returns a value, which the walks keep on their stack.
func newTDRun(ctx context.Context, c *Compiled, doc *tree.Node, check QualChecker) tdRun {
	idx := tree.EnsureIndex(doc)
	return tdRun{
		c:     c,
		idx:   idx,
		b:     c.NFA.Bind(idx.Syms),
		check: check,
		can:   NewCanceler(ctx),
		words: (len(c.NFA.States) + 63) / 64,
	}
}

// EvalTopDown implements algorithm topDown (§3.3, Fig. 3) for all four
// update kinds. It traverses only the part of the tree reachable with a
// non-empty automaton state set, and of that only the subtrees that
// hold a label the update could still select (tree.Index.Below, known
// once the document's chain has its label masks); subtrees the update cannot
// touch are returned by reference (structural sharing), so the result is
// a copy-on-write view over the input; an inserted or replacing element
// is the Compiled's one frozen constant, shared by every result. The
// input is never modified (the document is indexed on first evaluation,
// which stamps ordinals — see tree.EnsureIndex — but its structure and
// content are untouched). EmitTopDown is the same walk writing the
// result's serialization instead of building it.
// Cancelling ctx aborts the traversal at node granularity.
func EvalTopDown(ctx context.Context, c *Compiled, doc *tree.Node, check QualChecker) (*tree.Node, error) {
	r := newTDRun(ctx, c, doc, check)
	s0 := c.NFA.InitialSet()
	result := tree.NewDocument(nil)
	changed := false
	for _, ch := range doc.Children {
		if ch.Kind != tree.Element {
			result.Children = append(result.Children, ch)
			continue
		}
		out, kept := r.processNode(ch, s0, 0)
		if !kept {
			changed = true
			continue
		}
		if out != ch {
			changed = true
		}
		result.Children = append(result.Children, out)
	}
	if err := r.can.Err(); err != nil {
		return nil, err
	}
	if !changed {
		// Nothing matched anywhere: the query is the identity on doc.
		return doc, nil
	}
	return result, nil
}

// Answer says how EmitTopDown produced its output: by the walk alone,
// by the walk recording what it wrote, or by replaying a recording.
type Answer string

// The answers of EmitTopDown.
const (
	AnswerWalk   Answer = "walk"
	AnswerRecord Answer = "record"
	AnswerReplay Answer = "replay"
)

// EmitTopDown writes to w exactly the bytes that sax.Emit of
// EvalTopDown(ctx, c, doc, DirectChecker{}) writes, through one
// tree.Emitter, without building the result: the same walk (visit)
// decides every node, and emitNode writes what processNode would have
// built. Unchanged subtrees go out as copies of their image ranges.
//
// A version never changes, so the answer over a version's own document
// node is recorded and replayed (tree.Index.ReadAnswer, which also notes
// the read of the version's chain, so the chain's second read builds
// its image): the first run of c over the version notes it, the second,
// once the chain has its image, records the walk's output, and every
// later run writes the recording back, visiting no node. A run that
// fails or is cancelled publishes nothing. The answer is returned, and
// set on the context's trace before the first byte is written.
//
// The walk stops at the first write error, which it returns; a
// cancelled ctx stops it at node granularity, and then the buffered
// output is dropped, so a walk cancelled before 64 KiB of output has
// written nothing to w. A replay checks ctx once, before it writes.
func EmitTopDown(ctx context.Context, c *Compiled, doc *tree.Node, w io.Writer) (Answer, error) {
	if ctx != nil && ctx.Err() != nil {
		return AnswerWalk, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	e := tree.NewEmitter(w)
	if doc.Kind != tree.Document {
		// topDown answers an input it leaves unchanged with the input
		// itself, which for anything but a document node serializes
		// differently from the walk below: write the built answer.
		res, err := EvalTopDown(ctx, c, doc, DirectChecker{})
		if err != nil {
			return AnswerWalk, err
		}
		e.Node(res)
		return AnswerWalk, e.Flush()
	}
	rec, recorder := tree.IndexOf(doc).ReadAnswer(c.id)
	answer := AnswerWalk
	switch {
	case rec != nil:
		answer = AnswerReplay
	case recorder != nil:
		answer = AnswerRecord
		e.Record(recorder)
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.SetAnswer(string(answer))
	}
	if rec != nil {
		rec.Emit(&e)
		return answer, e.Flush()
	}
	r := newTDRun(ctx, c, doc, DirectChecker{})
	s0 := c.NFA.InitialSet()
	for _, ch := range doc.Children {
		if ch.Kind == tree.Element {
			r.emitNode(&e, ch, s0, 0)
		} else {
			e.Node(ch)
		}
		if e.Err() != nil {
			break
		}
		if err := r.can.Err(); err != nil {
			return answer, err
		}
	}
	if err := e.Flush(); err != nil {
		return answer, err
	}
	if recorder != nil {
		recorder.Publish()
	}
	return answer, nil
}
