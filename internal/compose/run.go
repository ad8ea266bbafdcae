package compose

import (
	"xtq/internal/automaton"
	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

// stateSet abbreviates the automaton's bit set in the signatures below.
type stateSet = automaton.StateSet

// This file evaluates a Plan: it navigates the *stacked virtual document*
// View_k = t_{k-1}(…t_0(T)…) without materializing any View_i. The
// single-layer state discipline of §4 — carry the selecting-NFA state set
// alongside every context node, apply the update's effect exactly where
// the user query looks — is threaded through the stack: a virtual node
// carries one state set per layer, and enumerating its children at level
// L recursively enumerates them at level L-1 and applies transform L-1 to
// the result. Renames feed the relabeled node to the next layer's
// automaton, constant elements inserted by layer i are navigated (and
// further transformed) by layers above i, and as soon as every layer's
// state set dies the evaluator drops into plain navigation: child steps
// and '//l' walks below such a node run over the real tree with no
// virtual node and no per-layer state, and a qualifier test there is
// xpath's own. Once the document's chain has its subtree label masks
// (tree.Index.Below), a layer's state set also dies at a child below
// which, in the layer's input, no label it could still select occurs,
// and a '//l' walk skips every subtree that cannot hold an l. Qualifier
// tests are first-witness searches everywhere: they stop the enumeration
// they are in at the first node that passes.
//
// Representation: the run binds every layer's NFA to the source
// document's symbol table (automaton.Binding), so stepping compares dense
// symbol ids; labels the document has never seen — rename targets and
// constant-element labels — carry NoSym and match through the binding's
// string fallback. Every virtual node has an ordinal: real document nodes
// use their preorder ordinal from the document index, nodes of constant
// elements draw fresh ordinals from a per-run arena. Ordinals make
// identity checks (descendant-axis deduplication, constant-element
// anchors) dense bitset operations instead of map lookups.
//
// Per-layer state lives in two per-run LIFO arenas, one of state vectors
// and one of state-set words. Children are enumerated through callbacks,
// so the vnodes alive at any moment are exactly those on the current
// enumeration path: a child's vector and step results are pushed before
// its callback and truncated after it, and a walk allocates only when it
// nests deeper than any earlier point of the run. A vnode kept past its
// callback — a frontier entry — is copied out once (detach).

// vnode is a context node of the stacked virtual document.
//
// Level discipline: a vnode is always produced "at" some level L — it
// denotes a node of View_L. Its label is the effective label in View_L
// (after any renames by layers below L) and states[i] is populated
// exactly for the layers i ∈ [origin, L) that act below it at that level;
// entries at or above L stay nil. deadAll (every entry nil or empty) is
// therefore level-independent: it means no layer the vnode has been
// exposed to can touch its subtree.
type vnode struct {
	n     *tree.Node
	label string
	// sym is the label's symbol in the source document's table, or NoSym
	// for labels the document does not know (renames, constant
	// elements), which the bindings match by string instead.
	sym tree.SymID
	// origin is the first view index where n exists: 0 for document
	// nodes, i+1 for nodes of layer i's constant element.
	origin int
	// anchor identifies the attachment instance for constant-element
	// nodes (constant elements share one *tree.Node across all the
	// places they appear; the anchor tells the occurrences apart). It is
	// the virtual ordinal of the attachment point, and 0 for document
	// nodes. (n, origin, anchor) is the identity of the virtual node.
	anchor int32
	// states[i] is the state set of layer i's NFA that reached this node
	// in View_i; nil means layer i cannot touch the subtree. A nil slice
	// means every layer is dead — the plain-navigation fast path. The
	// vector and its sets belong to the run's arenas unless the vnode
	// was detached.
	states []stateSet
}

// vkey is the identity of a virtual node, used to intern arena ordinals
// for constant-element occurrences.
type vkey struct {
	n      *tree.Node
	origin int
	anchor int32
}

func (x vnode) key() vkey { return vkey{n: x.n, origin: x.origin, anchor: x.anchor} }

// deadAll reports whether no transform layer can touch x's subtree; below
// such a node the evaluator navigates the real tree directly (§4's
// disjointness pruning, per layer).
func (x vnode) deadAll() bool {
	for _, s := range x.states {
		if s != nil && !s.Empty() {
			return false
		}
	}
	return true
}

// detach moves x's state out of the arenas, for a vnode kept past the
// callback that produced it.
func (x *vnode) detach() {
	if x.states != nil {
		x.states = copyStates(x.states)
	}
}

// copyStates copies a state vector and its sets; a vector in which every
// layer is dead needs no copy and becomes nil. It stays out of line so
// that detach, called on every frontier entry, inlines.
//
//go:noinline
func copyStates(v []stateSet) []stateSet {
	if (vnode{states: v}).deadAll() {
		return nil
	}
	out := make([]stateSet, len(v))
	for i, s := range v {
		if s != nil {
			out[i] = s.Clone()
		}
	}
	return out
}

// bitset is a growable bit set over virtual ordinals.
type bitset []uint64

func (b *bitset) add(ord int32) bool {
	w, bit := int(ord)/64, uint(ord)%64
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	if (*b)[w]&(1<<bit) != 0 {
		return false
	}
	(*b)[w] |= 1 << bit
	return true
}

// run is the per-evaluation state of a Plan: statistics, the cancellation
// poll, the per-layer symbol bindings, the virtual-ordinal arena that
// gives constant-element occurrences stable dense identities within the
// evaluation, and the state arenas of the enumeration path. A fresh run
// per Eval call is what makes Plan (and the facade's PreparedView)
// goroutine-safe — nothing of a run ever hangs off the Plan.
type run struct {
	plan  *Plan
	can   *core.Canceler
	stats ViewStats
	idx   *tree.Index
	// masked is set when idx's chain had its label masks when the run
	// started; without them no mask test can prune, and none is made.
	masked bool
	binds  []*automaton.Binding
	// syms[i] is what layer i's update brings into the view, resolved
	// in the document's table.
	syms []layerSyms
	// nextVOrd is the next free virtual ordinal; real nodes own
	// [0, idx.NumNodes).
	nextVOrd int32
	vords    map[vkey]int32
	// bsPool recycles dedup bitsets across (possibly nested) descendant
	// expansions.
	bsPool []bitset
	// vecs and sets are the LIFO state arenas: per-layer vectors and
	// state-set words of the vnodes on the enumeration path. A caller
	// remembers the length, pushes, and truncates back once the
	// callback that used the push returns.
	vecs []stateSet
	sets []uint64
}

// layerSyms is one layer's update resolved in the document's table.
type layerSyms struct {
	// rename is the symbol of the layer's rename target (NoSym when
	// absent from the document or the layer is not a rename).
	rename tree.SymID
	// intro is the label mask (tree.SymBit) of the labels the layer can
	// bring below a node where it is live: its rename target, or every
	// label of its constant element.
	intro uint64
}

// arenaDepth is the number of nested vnodes the first arena block holds;
// deeper walks grow the arenas by doubling.
const arenaDepth = 32

// pushVec takes a cleared per-layer state vector from the arena.
func (r *run) pushVec() []stateSet {
	n, k := len(r.vecs), len(r.binds)
	if n+k > cap(r.vecs) {
		// Grow into a fresh block without copying: the vectors below n
		// are reached only through their vnodes' slices, which keep
		// pointing into the old block.
		r.vecs = make([]stateSet, n, 2*cap(r.vecs)+k*arenaDepth)
	}
	r.vecs = r.vecs[:n+k]
	v := r.vecs[n : n+k : n+k]
	clear(v)
	return v
}

// pushSet takes a state set of the given word count from the arena; its
// contents are garbage, so the caller overwrites it (StepInto clears).
func (r *run) pushSet(words int) stateSet {
	n := len(r.sets)
	if n+words > cap(r.sets) {
		r.sets = make([]uint64, n, 2*cap(r.sets)+words*arenaDepth)
	}
	r.sets = r.sets[:n+words]
	return r.sets[n : n+words : n+words]
}

func newRun(p *Plan, can *core.Canceler, doc *tree.Node) *run {
	idx := tree.EnsureIndex(doc)
	r := &run{
		plan:     p,
		can:      can,
		stats:    ViewStats{Layers: make([]Stats, len(p.layers))},
		idx:      idx,
		masked:   idx.HasMasks(),
		binds:    make([]*automaton.Binding, len(p.layers)),
		syms:     make([]layerSyms, len(p.layers)),
		nextVOrd: int32(idx.NumNodes),
	}
	for i, l := range p.layers {
		r.binds[i] = l.NFA.Bind(idx.Syms)
		switch u := &l.Query.Update; u.Op {
		case core.Rename:
			r.syms[i].rename = idx.Syms.Lookup(u.Label)
			r.syms[i].intro = tree.SymBit(r.syms[i].rename)
		case core.Insert, core.Replace:
			r.syms[i].intro = r.labelBits(u.Elem)
		}
	}
	return r
}

// labelBits returns the label mask of the elements of n's subtree, n
// included, in the document's table.
func (r *run) labelBits(n *tree.Node) uint64 {
	var m uint64
	if n.Kind == tree.Element {
		m = tree.SymBit(r.idx.Syms.Lookup(n.Label))
	}
	for _, c := range n.Children {
		m |= r.labelBits(c)
	}
	return m
}

// below returns the label mask (tree.Index.Below) of what may occur
// strictly below x in the view it was produced at: the document's labels
// below x.n, with what every layer still live at x can bring there
// (entries at or above x's level are nil), and every bit for a node of a
// constant element.
func (r *run) below(x vnode) uint64 {
	if !r.masked || x.origin > 0 {
		return ^uint64(0)
	}
	m := r.idx.Below(x.n)
	if m == ^uint64(0) {
		return m
	}
	for i, s := range x.states {
		if s != nil && !s.Empty() {
			m |= r.syms[i].intro
		}
	}
	return m
}

// stepBit returns the label mask a child step's label test needs: every
// bit, which no mask test can fail, for a wildcard or an unmasked run.
func (r *run) stepBit(s *xpath.Step) uint64 {
	if !r.masked || s.Wildcard {
		return ^uint64(0)
	}
	return tree.SymBit(r.idx.Syms.Lookup(s.Label))
}

// ordOf returns x's virtual ordinal: the preorder ordinal for real
// document nodes, an interned arena ordinal (≥ NumNodes) otherwise.
func (r *run) ordOf(x vnode) int32 {
	if x.origin == 0 && x.anchor == 0 {
		if ord, ok := r.idx.OrdOf(x.n); ok {
			return ord
		}
	}
	k := x.key()
	if id, ok := r.vords[k]; ok {
		return id
	}
	if r.vords == nil {
		r.vords = make(map[vkey]int32)
	}
	id := r.nextVOrd
	r.nextVOrd++
	r.vords[k] = id
	return id
}

// getBS borrows a cleared dedup bitset from the pool; putBS returns it.
func (r *run) getBS() bitset {
	if n := len(r.bsPool); n > 0 {
		b := r.bsPool[n-1]
		r.bsPool = r.bsPool[:n-1]
		return b
	}
	return make(bitset, (r.idx.NumNodes+63)/64)
}

func (r *run) putBS(b bitset) {
	for i := range b {
		b[i] = 0
	}
	r.bsPool = append(r.bsPool, b)
}

// symOf resolves the label of n, a node of the underlying tree of a vnode
// with the given origin, in the document's symbol table. Document nodes
// resolve through the index (foreign nodes — shared subtrees stolen by a
// more recent indexing — by name inside SymOf); constant-element nodes
// carry symbols of the query's own parse, so they resolve by name (NoSym
// engages the bindings' string fallback).
func (r *run) symOf(n *tree.Node, origin int) tree.SymID {
	if origin == 0 {
		return r.idx.SymOf(n)
	}
	return r.idx.Syms.Lookup(n.Label)
}

// yieldConstant passes fn a transform's constant element attached at
// `at`, entering the stack at view index level. Its state vector lives in
// the arena for the duration of the call.
func (r *run) yieldConstant(elem *tree.Node, level int, at vnode, fn func(vnode) bool) bool {
	mark := len(r.vecs)
	ok := fn(vnode{
		n:      elem,
		label:  elem.Label,
		sym:    r.idx.Syms.Lookup(elem.Label),
		origin: level,
		anchor: r.ordOf(at),
		states: r.pushVec(),
	})
	r.vecs = r.vecs[:mark]
	return ok
}

// eachChildAt enumerates the children of x as they appear in View_level —
// the document after the first `level` transform layers. Navigation
// passes elemsOnly; materialization needs text and comment children too
// (updates cannot touch them, so they are yielded unwrapped with no label
// or states). fn returns false to stop the enumeration; eachChildAt
// reports whether it ran to the end (false also once the run is
// cancelled). The vnodes passed to fn live in the run's arenas until fn
// returns.
func (r *run) eachChildAt(x vnode, level int, elemsOnly bool, fn func(vnode) bool) bool {
	if r.can.Stopped() {
		return false
	}
	if level == x.origin || x.deadAll() {
		return r.baseChildren(x, elemsOnly, fn)
	}
	// The children in View_level are the children in View_{level-1} with
	// transform layer level-1 applied to them.
	li := level - 1
	parent := x.states[li]
	if parent == nil || parent.Empty() {
		// Layer li is disjoint below x: View_level and View_li agree
		// here. Lower layers may still be live, so recurse rather than
		// fall into the base loop.
		return r.eachChildAt(x, li, elemsOnly, fn)
	}
	t := r.plan.layers[li]
	u := &t.Query.Update
	b := r.binds[li]
	m := t.NFA
	if !r.eachChildAt(x, li, elemsOnly, func(ch vnode) bool {
		if ch.n.Kind != tree.Element {
			return fn(ch)
		}
		r.stats.Layers[li].NodesVisited++
		mark := len(r.sets)
		st := r.pushSet(len(parent))
		b.StepInto(parent, ch.sym, ch.label, func(id int) bool {
			for _, q := range m.States[id].Quals {
				if !r.evalQualAt(ch, q, li) {
					return false
				}
			}
			return true
		}, st)
		var ok bool
		matched := m.Matches(st)
		switch {
		case !matched || u.Op == core.Insert:
			// An insert's constant element appears when ch's own
			// children are enumerated (it becomes ch's last child).
			// Below an unmatched ch that holds no label the layer could
			// still select (Binding.Needed), the layer is dead: clearing
			// its set lets the walk go plain there. A matched ch keeps
			// its set, which materialize and the insert read.
			if !matched && r.masked && b.Needed(st)&r.below(ch) == 0 {
				st = nil
			}
			ch.states[li] = st
			ok = fn(ch)
		case u.Op == core.Delete:
			// ch does not exist in View_level.
			ok = true
		case u.Op == core.Replace:
			ok = r.yieldConstant(u.Elem, level, ch, fn)
		case u.Op == core.Rename:
			ch.label = u.Label
			ch.sym = r.syms[li].rename
			ch.states[li] = st
			ok = fn(ch)
		}
		r.sets = r.sets[:mark]
		return ok
	}) {
		return false
	}
	// An insert-matched x grows the constant element as its last child in
	// View_level; layers above li navigate and transform it like any
	// other child.
	if u.Op == core.Insert && m.Matches(parent) {
		r.stats.NodesVisited++
		return r.yieldConstant(u.Elem, level, x, fn)
	}
	return true
}

// baseChildren enumerates the underlying children of x: the real document
// children for origin-0 nodes, the constant-element subtree otherwise.
// Children of a node every layer is dead below inherit the nil states
// slice; the others take a vector from the arena for the duration of
// their callback.
func (r *run) baseChildren(x vnode, elemsOnly bool, fn func(vnode) bool) bool {
	dead := x.deadAll()
	for _, ch := range x.n.Children {
		if ch.Kind != tree.Element {
			if !elemsOnly && !fn(vnode{n: ch, origin: x.origin, anchor: x.anchor}) {
				return false
			}
			continue
		}
		r.stats.NodesVisited++
		c := vnode{n: ch, label: ch.Label, sym: r.symOf(ch, x.origin), origin: x.origin, anchor: x.anchor}
		if dead {
			if !fn(c) {
				return false
			}
			continue
		}
		mark := len(r.vecs)
		c.states = r.pushVec()
		ok := fn(c)
		r.vecs = r.vecs[:mark]
		if !ok {
			return false
		}
	}
	return true
}

// selectPathAt navigates path steps through View_level. A '//' step
// immediately followed by a named step is fused into a single walk, so
// the frontier of all descendants is never materialized.
func (r *run) selectPathAt(from vnode, steps []xpath.Step, level int) []vnode {
	frontier := []vnode{from}
	for i := 0; i < len(steps); i++ {
		if len(frontier) == 0 {
			return nil
		}
		s := steps[i]
		if s.Axis == xpath.DescendantOrSelf && len(s.Quals) == 0 &&
			i+1 < len(steps) && steps[i+1].Axis == xpath.Child {
			frontier = r.applyDescChildAt(frontier, steps[i+1], level)
			i++
			continue
		}
		frontier = r.applyStepAt(frontier, s, level)
	}
	return frontier
}

// applyDescChildAt evaluates the fused step '//l[q]' over View_level: all
// matching children of the frontier's self-or-descendant nodes, in one
// walk that skips every subtree whose label mask lacks l. Deduplication
// is a bitset over virtual ordinals.
func (r *run) applyDescChildAt(frontier []vnode, s xpath.Step, level int) []vnode {
	var out []vnode
	seen := r.getBS()
	want := r.stepBit(&s)
	var visit func(x vnode) bool
	visit = func(x vnode) bool {
		if r.below(x)&want == 0 {
			return true
		}
		if x.deadAll() {
			return r.deadStep(x, x.n, &s, level, want, &seen, &out)
		}
		return r.eachChildAt(x, level, true, func(ch vnode) bool {
			if r.stepHoldsAt(ch, &s, level) && seen.add(r.ordOf(ch)) {
				ch.detach()
				out = append(out, ch)
			}
			return visit(ch)
		})
	}
	for _, f := range frontier {
		visit(f)
	}
	r.putBS(seen)
	return out
}

// deadStep evaluates child step s below n, a node of x's underlying
// subtree, when no layer can touch x's subtree: the paper's plain
// navigation, straight over the real tree with no vnode per visited node
// and no per-layer state. Given seen, it is the fused '//l' step: it also
// descends into the children whose label mask holds want, l's bit, and
// deduplicates through seen. It counts NodesVisited and polls
// cancellation exactly as the general walk does through baseChildren.
func (r *run) deadStep(x vnode, n *tree.Node, s *xpath.Step, level int, want uint64, seen *bitset, out *[]vnode) bool {
	if r.can.Stopped() {
		return false
	}
	for _, ch := range n.Children {
		if ch.Kind != tree.Element {
			continue
		}
		r.stats.NodesVisited++
		if s.Wildcard || ch.Label == s.Label {
			c := vnode{n: ch, label: ch.Label, sym: r.symOf(ch, x.origin), origin: x.origin, anchor: x.anchor}
			if r.qualsHoldAt(c, s.Quals, level) && (seen == nil || seen.add(r.ordOf(c))) {
				*out = append(*out, c)
			}
		}
		if seen != nil && (want == ^uint64(0) || r.idx.Below(ch)&want != 0) && !r.deadStep(x, ch, s, level, want, seen, out) {
			return false
		}
	}
	return true
}

func (r *run) applyStepAt(frontier []vnode, s xpath.Step, level int) []vnode {
	var out []vnode
	switch s.Axis {
	case xpath.Child:
		// A node has one parent, so distinct frontier entries yield
		// distinct children: no deduplication needed.
		for _, f := range frontier {
			if f.deadAll() {
				r.deadStep(f, f.n, &s, level, 0, nil, &out)
				continue
			}
			r.eachChildAt(f, level, true, func(ch vnode) bool {
				if r.stepHoldsAt(ch, &s, level) {
					ch.detach()
					out = append(out, ch)
				}
				return true
			})
		}
	case xpath.DescendantOrSelf:
		// The frontier may contain a node and its own descendant, so the
		// expansion deduplicates by virtual-node ordinal.
		seen := r.getBS()
		var visit func(x vnode) bool
		visit = func(x vnode) bool {
			if r.qualsHoldAt(x, s.Quals, level) && seen.add(r.ordOf(x)) {
				x.detach()
				out = append(out, x)
			}
			return r.eachChildAt(x, level, true, visit)
		}
		for _, f := range frontier {
			visit(f)
		}
		r.putBS(seen)
	case xpath.Self:
		for _, f := range frontier {
			if r.qualsHoldAt(f, s.Quals, level) {
				out = append(out, f)
			}
		}
	case xpath.Attribute:
		// Attribute steps are handled by the operand/qualifier
		// evaluators, never on navigation paths.
	}
	return out
}

// qualsHoldAt evaluates step qualifiers against View_level.
func (r *run) qualsHoldAt(x vnode, quals []xpath.Qual, level int) bool {
	for _, q := range quals {
		if !r.evalQualAt(x, q, level) {
			return false
		}
	}
	return true
}

// evalQualAt evaluates one qualifier at x over View_level. It is used
// both for the user query's qualifiers (level = full stack) and for the
// qualifiers of layer i's selecting NFA (level = i: a layer's qualifiers
// see the view produced by the layers below it).
func (r *run) evalQualAt(x vnode, q xpath.Qual, level int) bool {
	if x.deadAll() {
		// No layer below `level` is live at x (entries at or above level
		// are nil by the level discipline), so plain evaluation over the
		// real subtree is exact — and much cheaper than the update-aware
		// machinery.
		return xpath.EvalQual(x.n, q)
	}
	switch q := q.(type) {
	case *xpath.TrueQual:
		return true
	case *xpath.LabelQual:
		return x.n.Kind == tree.Element && x.label == q.Label
	case *xpath.AndQual:
		return r.evalQualAt(x, q.L, level) && r.evalQualAt(x, q.R, level)
	case *xpath.OrQual:
		return r.evalQualAt(x, q.L, level) || r.evalQualAt(x, q.R, level)
	case *xpath.NotQual:
		return !r.evalQualAt(x, q.X, level)
	case *xpath.PathQual:
		return r.witnessAt(x, xpath.NewPathTest(q.Path, xpath.OpNone, ""), level)
	case *xpath.CmpQual:
		return r.witnessAt(x, xpath.NewPathTest(q.Path, q.Op, q.Lit), level)
	default:
		return false
	}
}

// splitAttrTail splits a qualifier or operand path into its navigation
// steps and the trailing attribute name, if any, by xpath's convention
// (xpath.NewPathTest): a/b/@id navigates a/b and then reads @id, @id reads
// the context node's own attribute, and a nil path yields (nil, "").
func splitAttrTail(p *xpath.Path) (steps []xpath.Step, attr string) {
	t := xpath.NewPathTest(p, xpath.OpNone, "")
	return t.Steps, t.Attr
}

// witnessAt is xpath.PathTest.Exists over View_level: a depth-first search
// that stops the enumeration it is in at the first node passing t, and
// hands the rest of the search to xpath at the first node no layer can
// touch, where plain evaluation is exact. Node values and attributes are
// unaffected by the update kinds of §2 (they add, remove or relabel
// element nodes, and Value reads immediate text children only), so only
// navigation is update-aware.
func (r *run) witnessAt(x vnode, t xpath.PathTest, level int) bool {
	if x.deadAll() {
		return t.Exists(x.n)
	}
	if len(t.Steps) == 0 {
		return t.Holds(x.n)
	}
	s := &t.Steps[0]
	rest := t
	rest.Steps = t.Steps[1:]
	switch s.Axis {
	case xpath.Child:
		return r.someChildAt(x, level, func(ch vnode) bool {
			return r.stepHoldsAt(ch, s, level) && r.witnessAt(ch, rest, level)
		})
	case xpath.DescendantOrSelf:
		if len(s.Quals) == 0 && len(rest.Steps) > 0 && rest.Steps[0].Axis == xpath.Child {
			return r.witnessDesc(x, t, r.stepBit(&rest.Steps[0]), level)
		}
		return r.qualsHoldAt(x, s.Quals, level) && r.witnessAt(x, rest, level) ||
			r.someChildAt(x, level, func(ch vnode) bool { return r.witnessAt(ch, t, level) })
	case xpath.Self:
		return r.qualsHoldAt(x, s.Quals, level) && r.witnessAt(x, rest, level)
	}
	return false
}

// witnessDesc is witnessAt for a t that starts with '//l', in one walk
// like selectPathAt's fused step: each child is tested as an l, then
// searched below unless its label mask lacks want, l's bit.
func (r *run) witnessDesc(x vnode, t xpath.PathTest, want uint64, level int) bool {
	if x.deadAll() {
		return t.Exists(x.n)
	}
	l := &t.Steps[1]
	after := t
	after.Steps = t.Steps[2:]
	return r.someChildAt(x, level, func(ch vnode) bool {
		return r.stepHoldsAt(ch, l, level) && r.witnessAt(ch, after, level) ||
			r.below(ch)&want != 0 && r.witnessDesc(ch, t, want, level)
	})
}

// someChildAt reports whether pred holds for some child of x in
// View_level, stopping the enumeration at the first that does.
func (r *run) someChildAt(x vnode, level int, pred func(vnode) bool) bool {
	found := false
	r.eachChildAt(x, level, true, func(ch vnode) bool {
		found = pred(ch)
		return !found
	})
	return found
}

// stepHoldsAt reports whether ch passes child step s over View_level: its
// label test and its qualifiers.
func (r *run) stepHoldsAt(ch vnode, s *xpath.Step, level int) bool {
	return (s.Wildcard || ch.label == s.Label) && r.qualsHoldAt(ch, s.Quals, level)
}

// condsHold evaluates the user query's where clause at x over the full
// stack.
func (r *run) condsHold(x vnode) bool {
	for _, cond := range r.plan.user.Conds {
		if !r.condHolds(x, cond) {
			return false
		}
	}
	return true
}

func (r *run) condHolds(x vnode, cond xquery.Cond) bool {
	for _, l := range r.operandValues(x, cond.L) {
		for _, v := range r.operandValues(x, cond.R) {
			if xpath.Compare(l, cond.Op, v) {
				return true
			}
		}
	}
	return false
}

func (r *run) operandValues(x vnode, o xquery.Operand) []string {
	if o.IsConst {
		return []string{o.Const}
	}
	if o.Path == nil || len(o.Path.Steps) == 0 {
		return []string{x.n.Value()}
	}
	if x.deadAll() {
		return xquery.Operand{Path: o.Path}.Values(x.n)
	}
	steps, attr := splitAttrTail(o.Path)
	var out []string
	for _, m := range r.selectPathAt(x, steps, len(r.plan.layers)) {
		if attr != "" {
			if v, ok := m.n.Attr(attr); ok {
				out = append(out, v)
			}
			continue
		}
		out = append(out, m.n.Value())
	}
	return out
}

// instantiate builds the return template for one binding, materializing
// hole subtrees with the embedded topDown (§4, "The value to be
// returned").
func (r *run) instantiate(it xquery.Item, x vnode) []*tree.Node {
	switch it := it.(type) {
	case *xquery.TextItem:
		return []*tree.Node{tree.NewText(it.Data)}
	case *xquery.Hole:
		return r.holeNodes(it.Operand, x)
	case *xquery.ElemTemplate:
		e := tree.NewElement(it.Label)
		for _, child := range it.Items {
			e.Children = append(e.Children, r.instantiate(child, x)...)
		}
		return []*tree.Node{e}
	default:
		return nil
	}
}

func (r *run) holeNodes(o xquery.Operand, x vnode) []*tree.Node {
	if o.IsConst {
		return []*tree.Node{tree.NewText(o.Const)}
	}
	targets := []vnode{x}
	if o.Path != nil && len(o.Path.Steps) > 0 {
		steps, attr := splitAttrTail(o.Path)
		if attr != "" {
			// Attribute holes yield the attribute values as text.
			var out []*tree.Node
			for _, v := range r.operandValues(x, o) {
				out = append(out, tree.NewText(v))
			}
			return out
		}
		targets = r.selectPathAt(x, steps, len(r.plan.layers))
	}
	out := make([]*tree.Node, 0, len(targets))
	for _, t := range targets {
		out = append(out, r.materialize(t))
	}
	return out
}

// materialize turns a virtual context node into the real tree node it
// denotes in the top view — the embedded topDown of §4, generalized to
// stacks: one walk of the virtual document applies every remaining layer,
// with no per-layer intermediate. Subtrees no layer can touch are shared
// with the source document; constant-element subtrees are copied per
// occurrence, like an XQuery element constructor.
func (r *run) materialize(x vnode) *tree.Node {
	if x.deadAll() {
		if x.origin > 0 {
			size := x.n.Size()
			r.stats.Materialized += size
			r.stats.Layers[x.origin-1].Materialized += size
			return x.n.DeepCopy()
		}
		return x.n
	}
	r.stats.Materialized++
	for i, s := range x.states {
		if s != nil && !s.Empty() {
			r.stats.Layers[i].Materialized++
		}
	}
	out := &tree.Node{Kind: tree.Element, Label: x.label, Attrs: x.n.Attrs}
	// Detect the no-op case as we go: when every child materializes to
	// the original pointer in the original order, the node itself can be
	// shared with the source (origin-0 nodes only — constant elements
	// must stay fresh copies).
	shared := x.origin == 0 && x.label == x.n.Label
	i := 0
	r.eachChildAt(x, len(r.plan.layers), false, func(c vnode) bool {
		var m *tree.Node
		if c.n.Kind != tree.Element {
			m = c.n
		} else {
			m = r.materialize(c)
		}
		if shared && (i >= len(x.n.Children) || x.n.Children[i] != m) {
			shared = false
		}
		i++
		out.Children = append(out.Children, m)
		return true
	})
	if shared && i == len(x.n.Children) {
		return x.n
	}
	return out
}
