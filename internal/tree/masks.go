package tree

// A chain's label masks (see chainID) hold, per ordinal, bit SymID % 64
// of every label strictly below the node, in the chain's table.
// Ordinals the build did not reach — nodes of older versions the built
// one replaced — hold every bit, and so does every node past the table.
// A node whose subtree holds a node of another index has every bit set
// too: its labels are ids of another table. A collision between two
// labels only makes a mask admit more, never less.

// SymBit returns sym's bit in a label mask: bit SymID % 64. NoSym has a
// bit too, which only a collision or a mask with every bit set matches.
func SymBit(sym SymID) uint64 { return 1 << (uint(sym) % 64) }

// Below returns the label mask of n's subtree: the labels strictly below
// n in ix's chain table. When the chain's masks do not cover n — n is
// not a member of ix, the chain has no masks yet, or n is past them or
// was not reached by their build — every bit is set, which prunes
// nothing.
func (ix *Index) Below(n *Node) uint64 {
	if ix.chain == nil || !ix.Contains(n) {
		return ^uint64(0)
	}
	if m := ix.chain.below.Load(); m != nil && uint(n.ord) < uint(len(*m)) {
		return (*m)[n.ord]
	}
	return ^uint64(0)
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
