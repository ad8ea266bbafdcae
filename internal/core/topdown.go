package core

import (
	"context"

	"xtq/internal/automaton"
	"xtq/internal/tree"
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
	sets  []automaton.StateSet // successor-set scratch, one per depth
}

func (r *tdRun) setAt(depth int) automaton.StateSet {
	for len(r.sets) <= depth {
		r.sets = append(r.sets, r.b.M.NewSet())
	}
	return r.sets[depth]
}

// processNode applies the compiled update below (and at) node n, which the
// traversal entered from state set s — i.e. s is the parent-level set and
// n's label has not been consumed yet. It returns (replacement, kept):
// kept is false when n is deleted; otherwise the replacement is the
// original pointer when the update cannot touch n's subtree, or a rebuilt
// node. This is the recursive body of algorithm topDown (Fig. 3).
func (r *tdRun) processNode(n *tree.Node, s automaton.StateSet, depth int) (*tree.Node, bool) {
	if r.can.Stopped() {
		return n, true
	}
	next := r.setAt(depth)
	m := r.b.M
	r.b.StepInto(s, r.idx.SymOf(n), n.Label, func(id int) bool { return r.check.Check(&m.States[id], n) }, next)
	if next.Empty() {
		// No state is alive below n: the subtree cannot be selected,
		// return it unchanged (Fig. 3 lines 2-3).
		return n, true
	}
	return r.processEntered(n, next, depth)
}

// processEntered is processNode for a node whose label is already
// consumed: entered is the state set after the transition on n. The child
// slice is copied lazily — nodes whose subtree the update does not change
// are returned by reference without allocating.
func (r *tdRun) processEntered(n *tree.Node, entered automaton.StateSet, depth int) (*tree.Node, bool) {
	u := &r.c.Query.Update
	matched := r.b.M.Matches(entered)
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
	for i, ch := range n.Children {
		if ch.Kind != tree.Element {
			if changed {
				newChildren = append(newChildren, ch)
			}
			continue
		}
		out, kept := r.processNode(ch, entered, depth+1)
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

// EvalTopDown implements algorithm topDown (§3.3, Fig. 3) for all four
// update kinds. It traverses only the part of the tree reachable with a
// non-empty automaton state set; subtrees the update cannot touch are
// returned by reference (structural sharing), so the result is a
// copy-on-write view over the input; an inserted or replacing element is
// the Compiled's one frozen constant, shared by every result. The input
// is never modified (the document is indexed on first evaluation, which
// stamps ordinals — see tree.EnsureIndex — but its structure and content
// are untouched).
// Cancelling ctx aborts the traversal at node granularity.
func EvalTopDown(ctx context.Context, c *Compiled, doc *tree.Node, check QualChecker) (*tree.Node, error) {
	idx := tree.EnsureIndex(doc)
	r := &tdRun{
		c:     c,
		idx:   idx,
		b:     c.NFA.Bind(idx.Syms),
		check: check,
		can:   NewCanceler(ctx),
	}
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
