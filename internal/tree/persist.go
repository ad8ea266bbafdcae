package tree

// PathCopy is the persistent (shared-structure) commit path of the
// versioned store: given the result of evaluating an update over a
// snapshot — a tree whose untouched subtrees are the previous
// version's own nodes, shared by reference — it adopts only the new
// nodes (the spine from each change to the root, plus inserted
// content) into the next version of the chain, aliasing everything
// else. The pointer tree is the whole representation: what the new
// version adds to the heap is its new nodes, their child slices and its
// Index — O(|delta|), instead of the Θ(|T|) a full Freeze pays — and a
// superseded version is garbage as soon as nothing (a history ring
// slot, a reader) holds its root. A node that lives on in later
// versions keeps itself and its version's membership stamp alive, and
// nothing else of the version it was created in.
//
// How a version is built:
//
//   - Nodes of out that prev owns (chain membership, Contains) are kept
//     by reference: their subtree and ordinals carry over untouched. The
//     four update operations never duplicate or move a source subtree,
//     so a member node appears at most once in out.
//   - Every other node is copied and numbered at the tail of the
//     chain's ordinal space. Copying (rather than stamping out's nodes
//     in place) matters: evaluators alias query constants (the
//     insert/replace element) into their output, and those may be
//     shared across commits. Each copy is its own allocation: in a
//     shared arena chunk one surviving node would keep its dead
//     chunk-mates' child slices reachable, those slices reach dead
//     nodes of older versions, and so on back to the chain's freeze.
//
// Replaced ordinals become holes: NumNodes (the width the evaluators
// size their annotation arrays by) only grows along a chain, while Live
// tracks the reachable count. When the width exceeds compactMinWidth
// and twice the live count, PathCopy falls back to a full Freeze that
// starts a fresh, dense chain, bounding ordinal-space growth.
//
// prev must head or extend a version chain (Adopt, Freeze or PathCopy);
// anything else falls back to Freeze.
func PathCopy(out *Node, prev *Index) (*Node, *Index, CopyStats) {
	if prev == nil || prev.chain == nil {
		return Freeze(out, prev)
	}
	if prev.Contains(out) {
		// The evaluation returned the previous root itself: nothing
		// changed, the "new" version is the old one in full.
		return out, prev, CopyStats{SharedWithBase: prev.Live}
	}

	// Two stamps describe the version. ix is its Index proper — it knows
	// the root — and is stamped on the root alone, which no later version
	// can alias (every commit builds a new root). Every other new node
	// carries member: the same chain, epoch, symbols, width and live
	// count, but no Root. A node that survives into later versions
	// then pins its birth version's membership and nothing more; through
	// a Root it would pin that version's spine, whose aliased children
	// pin the version before, and so on down the whole history.
	ix := &Index{chain: prev.chain, epoch: prev.epoch + 1}
	member := &Index{chain: ix.chain, epoch: ix.epoch}
	// The chain's symbol table is reused by pointer while the commit
	// introduces no new labels or attribute names, so symbol ids stay
	// comparable across every version of the chain; the first genuinely
	// new name clones it (ids of existing symbols are preserved).
	syms := prev.Syms
	cloned := false
	intern := func(name string) SymID {
		if id := syms.Lookup(name); id != NoSym {
			return id
		}
		if !cloned {
			syms = prev.Syms.Clone()
			cloned = true
		}
		return syms.Intern(name)
	}

	// kept marks, by ordinal, the aliased subtree roots, where the walk
	// counting the previous version's dropped nodes (below) prunes. Every
	// aliased node is a member of prev, so its ordinal is below
	// prev.NumNodes; a bitset costs one bit per ordinal where a set of
	// pointers rehashed with every few hundred children kept.
	kept := make([]uint64, (prev.NumNodes+63)/64)

	var (
		stats CopyStats
		next  = int32(prev.NumNodes)
	)
	alloc := func(src *Node, stamp *Index) *Node {
		dst := new(Node)
		dst.copyPayload(src)
		stats.Nodes++
		stats.Bytes += nodeBytes + int64(len(dst.Attrs))*attrBytes
		if dst.Kind == Element {
			if !syms.covers(dst.Sym, dst.Label) {
				dst.Sym = intern(dst.Label)
			}
			for i := range dst.Attrs {
				intern(dst.Attrs[i].Name)
			}
		}
		dst.ord = next
		next++
		dst.idx.Store(stamp)
		return dst
	}

	type frame struct {
		src *Node // node in out (not a member of prev)
		dst *Node // its copy
	}
	root := alloc(out, ix)
	stack := []frame{{out, root}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nc := len(f.src.Children)
		if nc == 0 {
			continue
		}
		f.dst.Children = make([]*Node, nc)
		stats.Bytes += int64(nc) * ptrBytes
		for i, ch := range f.src.Children {
			if prev.Contains(ch) {
				f.dst.Children[i] = ch
				kept[ch.ord/64] |= 1 << (ch.ord % 64)
				continue
			}
			f.dst.Children[i] = alloc(ch, member)
		}
		// New children get frames, pushed in reverse so they pop in
		// document order.
		for i := nc - 1; i >= 0; i-- {
			if ch := f.src.Children[i]; f.dst.Children[i] != ch {
				stack = append(stack, frame{ch, f.dst.Children[i]})
			}
		}
	}

	// Count the previous version's dropped nodes for Live: walk its tree
	// from its root, pruning at every aliased subtree (those survive
	// wholesale). Cost is O(spine + deleted), the same delta the copy
	// itself paid. A kept bit stands for a member of prev only: a node
	// of another index may carry the same ordinal, or one past the set.
	dropped := 0
	stack = append(stack, frame{src: prev.Root})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n := f.src; prev.Contains(n) && kept[n.ord/64]&(1<<(n.ord%64)) != 0 {
			continue
		}
		dropped++
		for _, ch := range f.src.Children {
			stack = append(stack, frame{src: ch})
		}
	}

	live := prev.Live + stats.Nodes - dropped
	width := int(next)
	if width > compactMinWidth && width > 2*live {
		// The chain's ordinal space has outgrown its live tree: dead
		// ordinals dominate, which bloats every per-ordinal evaluator
		// array. Renumber into a fresh, dense chain. The copies built
		// above become garbage; correctness is unaffected (out was never
		// stamped).
		return Freeze(out, prev)
	}

	stats.SharedWithBase = prev.Live - dropped
	ix.Root = root
	for _, x := range [...]*Index{ix, member} {
		x.Syms = syms
		x.NumNodes = width
		x.Live = live
	}
	return root, ix, stats
}

// compactMinWidth is the ordinal-space width below which PathCopy never
// compacts: small documents can tolerate any dead ratio, and the
// threshold keeps commit cost stable for them.
const compactMinWidth = 4096
