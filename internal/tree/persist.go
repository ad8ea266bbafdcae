package tree

// PathCopy is the persistent (shared-structure) commit path of the
// versioned store: given the result of evaluating an update over a
// sealed snapshot — a tree whose untouched subtrees are the previous
// version's own nodes, shared by reference — it adopts only the new
// nodes (the spine from each change to the root, plus inserted
// content) into the next version of the chain, aliasing everything
// else. The pointer tree is the whole representation: what the new
// version adds to the heap is its new nodes, their child slices, its
// Index and one Stats record — O(|delta|), instead of the Θ(|T|) a full
// Freeze pays — and a superseded version is garbage as soon as nothing
// (a history ring slot, a reader) holds its root. A node that lives on
// in later versions keeps itself and its version's membership stamp
// alive, and nothing else of the version it was created in.
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
// prev must be a sealed snapshot that owns its whole tree (Freeze,
// PathCopy, or Seal over a fully owned tree); anything else falls back
// to Freeze.
func PathCopy(out *Node, prev *Index) (*Node, *Index, CopyStats) {
	if prev == nil || !prev.sealed || prev.chain == nil {
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
	// carries member: the same chain, epoch, symbols, width and
	// statistics, but no Root. A node that survives into later versions
	// then pins its birth version's membership and nothing more; through
	// a Root it would pin that version's spine, whose aliased children
	// pin the version before, and so on down the whole history.
	ix := &Index{sealed: true, chain: prev.chain, epoch: prev.epoch + 1}
	member := &Index{sealed: true, chain: ix.chain, epoch: ix.epoch}
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

	// The statistics record is maintained incrementally alongside the
	// copy: nodes this commit creates are added as the walk allocates
	// them (their depth is the walk's frame depth — the spine runs from
	// the root), and the previous version's dropped nodes are
	// subtracted afterwards by a prune-at-aliased-subtrees walk (see
	// below). kept records the aliased subtree roots that walk prunes at.
	ns := prev.Stats().clone(prev.Syms.Len())
	kept := make(map[*Node]struct{}, 8)

	var (
		stats CopyStats
		next  = int32(prev.NumNodes)
	)
	alloc := func(src *Node, depth int32) *Node {
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
		dst.idx.Store(member)
		ns.add(dst, depth)
		return dst
	}

	type frame struct {
		src   *Node // node in out (not a member of prev)
		dst   *Node // its copy
		depth int32
	}
	root := alloc(out, 0)
	root.idx.Store(ix)
	stack := []frame{{out, root, 0}}
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
				kept[ch] = struct{}{}
				continue
			}
			f.dst.Children[i] = alloc(ch, f.depth+1)
		}
		// New children get frames, pushed in reverse so they pop in
		// document order.
		for i := nc - 1; i >= 0; i-- {
			if ch := f.src.Children[i]; f.dst.Children[i] != ch {
				stack = append(stack, frame{ch, f.dst.Children[i], f.depth + 1})
			}
		}
	}

	// Subtract the previous version's dropped nodes from the statistics:
	// walk its tree from its root, pruning at every aliased subtree
	// (those survive wholesale, and the update operations never move a
	// surviving subtree, so its depths carry over unchanged). Cost is
	// O(spine + deleted), the same delta the copy itself paid.
	dropped := 0
	stack = append(stack, frame{src: prev.Root})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := kept[f.src]; ok {
			continue
		}
		ns.sub(f.src, f.depth)
		dropped++
		for _, ch := range f.src.Children {
			stack = append(stack, frame{src: ch, depth: f.depth + 1})
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
		x.stats.Store(ns)
	}
	return root, ix, stats
}

// compactMinWidth is the ordinal-space width below which PathCopy never
// compacts: small documents can tolerate any dead ratio, and the
// threshold keeps commit cost stable for them.
const compactMinWidth = 4096
