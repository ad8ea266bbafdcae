package tree

import "sync/atomic"

// This file holds the statistics half of the planning subsystem: every
// sealed snapshot carries per-document statistics — node counts per
// label symbol, a depth histogram, totals — collected in one pass over
// the tree when the snapshot is built and maintained in O(|delta|)
// across PathCopy commits, so the cost-based method planner
// (internal/plan) can estimate per-(query, document) evaluation cost
// without ever walking the tree.

// DepthBuckets is the number of buckets of the depth histogram; the
// last bucket collects every depth >= DepthBuckets-1. 32 covers real
// documents (XMark nests ~12 deep) while keeping Stats cheap to copy
// per commit.
const DepthBuckets = 32

// depthBucket clamps a node depth into the histogram.
func depthBucket(d int32) int32 {
	if d >= DepthBuckets {
		return DepthBuckets - 1
	}
	return d
}

// Stats is the statistics record of one document version. A Stats value
// is immutable once published on an Index (commits derive the next
// version's record from it), so readers share it without locks.
type Stats struct {
	// Nodes counts every live node, including the document node.
	Nodes int
	// Elems, Texts count live nodes by kind.
	Elems int
	Texts int
	// Attrs counts attributes across all elements.
	Attrs int
	// TextBytes sums the character-data lengths of text nodes.
	TextBytes int64
	// Depth is the histogram of node depths (document node at depth 0);
	// the last bucket aggregates depths >= DepthBuckets-1.
	Depth [DepthBuckets]int32
	// PerSym counts live element nodes per label symbol, indexed by
	// SymID against the snapshot's table. Elements whose label the
	// table has never interned (foreign sealed subtrees) are counted in
	// Elems but not here.
	PerSym []int32
	// Gen is the fingerprint of this record: a process-unique
	// generation assigned when the record is built, so (query, Gen)
	// keys a planner decision that is valid exactly as long as the
	// statistics are.
	Gen uint64
}

// statsGen hands out fingerprint generations.
var statsGen atomic.Uint64

// Count returns the live element count of sym, 0 for NoSym or symbols
// interned after the record was built.
func (s *Stats) Count(sym SymID) int {
	if sym <= NoSym || int(sym) >= len(s.PerSym) {
		return 0
	}
	return int(s.PerSym[sym])
}

// MaxDepth returns the deepest non-empty histogram bucket — the
// document's height, clamped at DepthBuckets-1.
func (s *Stats) MaxDepth() int32 {
	for i := int32(DepthBuckets - 1); i >= 0; i-- {
		if s.Depth[i] > 0 {
			return i
		}
	}
	return 0
}

// clone derives a private copy for incremental maintenance, with a
// fresh fingerprint and the per-symbol slice grown to symLen.
func (s *Stats) clone(symLen int) *Stats {
	c := *s
	c.PerSym = make([]int32, max(symLen, len(s.PerSym)))
	copy(c.PerSym, s.PerSym)
	c.Gen = statsGen.Add(1)
	return &c
}

// bump adjusts the per-symbol count of sym, growing the slice when a
// commit interned new labels.
func (s *Stats) bump(sym SymID, delta int32) {
	if sym <= NoSym {
		return
	}
	for int(sym) >= len(s.PerSym) {
		s.PerSym = append(s.PerSym, 0)
	}
	s.PerSym[sym] += delta
}

// add accounts one node entering the document at the given depth. The
// node's Sym must already be valid in the target table.
func (s *Stats) add(n *Node, depth int32) { s.count(n, depth, 1) }

// sub accounts one node leaving the document at the given depth.
func (s *Stats) sub(n *Node, depth int32) { s.count(n, depth, -1) }

// count moves every total n contributes to by d (+1 or -1).
func (s *Stats) count(n *Node, depth, d int32) {
	s.Nodes += int(d)
	s.Depth[depthBucket(depth)] += d
	s.Attrs += int(d) * len(n.Attrs)
	switch n.Kind {
	case Element:
		s.Elems += int(d)
		s.bump(n.Sym, d)
	case Text:
		s.Texts += int(d)
		s.TextBytes += int64(d) * int64(len(n.Data))
	}
}

// Stats returns the document's statistics, computing and caching them
// on first use. Sealed snapshots built by Seal, Freeze or PathCopy
// carry them eagerly; plain evaluation indexes pay one walk on first
// request and serve the cached record afterwards.
func (ix *Index) Stats() *Stats {
	if s := ix.stats.Load(); s != nil {
		return s
	}
	s, _ := recount(ix)
	if ix.stats.CompareAndSwap(nil, s) {
		return s
	}
	return ix.stats.Load()
}

// recount walks the live tree from the root, building a fresh record
// and counting the reachable nodes ix does not own (foreign sealed
// subtrees, which indexing skips) — the path for plain evaluation
// indexes and Seal, and the from-scratch oracle the incremental
// maintenance is tested against.
func recount(ix *Index) (s *Stats, foreign int) {
	s = &Stats{PerSym: make([]int32, ix.Syms.Len()), Gen: statsGen.Add(1)}
	type frame struct {
		n     *Node
		depth int32
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{ix.Root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := f.n
		if !ix.Contains(n) {
			foreign++
		}
		s.Nodes++
		s.Depth[depthBucket(f.depth)]++
		s.Attrs += len(n.Attrs)
		switch n.Kind {
		case Element:
			s.Elems++
			// SymOf resolves nodes owned by foreign sealed snapshots by
			// name; labels this table never interned count into Elems
			// only.
			s.bump(ix.SymOf(n), 1)
		case Text:
			s.Texts++
			s.TextBytes += int64(len(n.Data))
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, frame{n.Children[i], f.depth + 1})
		}
	}
	return s, foreign
}

// RecountStats computes the statistics by a full walk over the live
// tree, bypassing the cached record — the oracle PathCopy's O(delta)
// maintenance is verified against.
func RecountStats(ix *Index) *Stats {
	s, _ := recount(ix)
	return s
}
