package tree

// A version chain's subtree label masks hold, per ordinal, the labels
// strictly below the node: bit SymID % 64 of each label in the chain's
// table. The evaluators read them through Index.Below to skip descents
// that cannot reach a label they look for. They are built by one walk of
// one version, at most once per chain, and published with a CAS like
// the image, beside it: on the chain's second read (ReadMasks, or
// ReadImage, whose image build builds them first when missing).
// Commits, Put and PathCopy never build them, and nothing refreshes
// them: each node a later commit creates answers every bit, so pruning
// decays with the commits after the build, at the nodes on their paths.
//
// One build serves every version of its chain: a stamped node's subtree
// never changes, and an ordinal is never reused. Ordinals the build did
// not reach — nodes of older versions that the built one replaced —
// hold every bit, and so does every node past the table (created after
// the build). A node whose subtree holds a node of another index has
// every bit set too: its labels are ids of another table. A collision
// between two labels only makes a mask admit more, never less.

// SymBit returns sym's bit in a label mask: bit SymID % 64. NoSym has a
// bit too, which only a collision or a mask with every bit set matches.
func SymBit(sym SymID) uint64 { return 1 << (uint(sym) % 64) }

// Below returns the label mask of n's subtree: the labels strictly below
// n, bit SymID % 64 of each in ix's chain table. When the chain's masks
// do not cover n — n is unstamped, of another index or chain, created
// after the masks were built or not reachable from the version they
// were built from, or the chain has no masks yet — every bit is set,
// which prunes nothing.
func (ix *Index) Below(n *Node) uint64 {
	if ix.chain == nil || !ix.Contains(n) {
		return ^uint64(0)
	}
	if m := ix.chain.below.Load(); m != nil && uint(n.ord) < uint(len(*m)) {
		return (*m)[n.ord]
	}
	return ^uint64(0)
}

// ReadMasks notes a read of ix's version chain that copies none of its
// bytes, and builds the chain's label masks on the chain's second noted
// read of any kind (this or ReadImage) when it has none yet. It reports
// whether this call published them. It never builds an image.
func (ix *Index) ReadMasks() (built bool) {
	if ix.chain == nil || ix.chain.below.Load() != nil || !ix.chain.read.Swap(true) {
		return false
	}
	return ix.BuildMasks()
}

// BuildMasks builds the label masks of ix's version chain from ix.Root
// when the chain has none yet, and reports whether this call published
// them. Concurrent first calls may each build, but exactly one set is
// published. ix must be a version's own index (see Image); for any
// other index it does nothing.
func (ix *Index) BuildMasks() (built bool) {
	if ix.chain == nil || ix.Root == nil || ix.chain.below.Load() != nil {
		return false
	}
	m := buildMasks(ix)
	return ix.chain.below.CompareAndSwap(nil, &m)
}

// HasMasks reports whether ix's chain has label masks, so that a walk
// can skip asking Below when every answer would have every bit set.
func (ix *Index) HasMasks() bool {
	return ix.chain != nil && ix.chain.below.Load() != nil
}

// buildMasks folds the label masks of every member node reachable from
// ix.Root, children before parents, with an iterative walk (documents as
// deep as WithMaxDepth admits must not overflow the stack). Every other
// ordinal holds every bit.
func buildMasks(ix *Index) []uint64 {
	below := make([]uint64, ix.NumNodes)
	for i := range below {
		below[i] = ^uint64(0)
	}
	type frame struct {
		n    *Node
		exit bool
	}
	stack := []frame{{ix.Root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := f.n
		switch {
		case f.exit:
			below[n.ord] = ix.childMasks(n, below)
		case !ix.Contains(n):
			// Another index's subtree: its parent's fold sets every bit.
		case len(n.Children) == 0:
			below[n.ord] = 0
		default:
			stack = append(stack, frame{n, true})
			for _, c := range n.Children {
				stack = append(stack, frame{c, false})
			}
		}
	}
	return below
}

// childMasks folds the label masks of n's children, each child's own
// label bit with the mask below it, into the mask below n. A child of
// another index sets every bit.
func (ix *Index) childMasks(n *Node, below []uint64) uint64 {
	var m uint64
	for _, c := range n.Children {
		if c.Kind != Element {
			continue
		}
		if !ix.Contains(c) {
			return ^uint64(0)
		}
		m |= SymBit(c.Sym) | below[c.ord]
	}
	return m
}
