// Package stats is the document side of the cost-based method planner:
// a read-only view over the per-snapshot statistics record the tree
// layer collects at Adopt/Freeze time and maintains in O(|delta|) across
// PathCopy commits (internal/tree/stats.go). The planner
// (internal/plan) consumes this view by label name — it never touches
// symbol ids or the nodes — so the cost model stays independent of
// the storage layout.
package stats

import "xtq/internal/tree"

// Doc is the statistics view of one document version. The zero Doc
// (Valid() == false) stands for "no statistics available" and makes
// every estimate degrade to a conservative whole-document guess.
type Doc struct {
	ix *tree.Index
	s  *tree.Stats
}

// Of returns the statistics view of the document version ix indexes.
// For store snapshots the record is precomputed and this is O(1); a
// plain evaluation index pays one tree walk on first use (cached on the
// index). A nil index yields the zero Doc.
func Of(ix *tree.Index) Doc {
	if ix == nil {
		return Doc{}
	}
	return Doc{ix: ix, s: ix.Stats()}
}

// Valid reports whether the view carries a statistics record.
func (d Doc) Valid() bool { return d.s != nil }

// Nodes returns the live node count (including the document node).
func (d Doc) Nodes() int {
	if d.s == nil {
		return 0
	}
	return d.s.Nodes
}

// Elems returns the live element count.
func (d Doc) Elems() int {
	if d.s == nil {
		return 0
	}
	return d.s.Elems
}

// Attrs returns the attribute count across all live elements.
func (d Doc) Attrs() int {
	if d.s == nil {
		return 0
	}
	return d.s.Attrs
}

// TextBytes returns the total character-data bytes of live text nodes.
func (d Doc) TextBytes() int64 {
	if d.s == nil {
		return 0
	}
	return d.s.TextBytes
}

// MaxDepth returns the document height (clamped at the histogram
// width; see tree.DepthBuckets).
func (d Doc) MaxDepth() int {
	if d.s == nil {
		return 0
	}
	return int(d.s.MaxDepth())
}

// AtDepth returns the number of live nodes at the given depth (document
// node at 0). Depths beyond the histogram are folded into its last
// bucket.
func (d Doc) AtDepth(depth int) int {
	if d.s == nil || depth < 0 {
		return 0
	}
	if depth >= tree.DepthBuckets {
		depth = tree.DepthBuckets - 1
	}
	return int(d.s.Depth[depth])
}

// BelowDepth returns the number of live nodes strictly deeper than the
// given depth — the subtree mass a descendant step launched from that
// depth can possibly scan.
func (d Doc) BelowDepth(depth int) int {
	if d.s == nil {
		return 0
	}
	if depth < 0 {
		depth = -1
	}
	n := 0
	for b := depth + 1; b < tree.DepthBuckets; b++ {
		n += int(d.s.Depth[b])
	}
	return n
}

// Count returns the number of live elements labeled label. Labels the
// document has never interned count zero — exactly the elements a label
// test on them would select.
func (d Doc) Count(label string) int {
	if d.s == nil || d.ix == nil {
		return 0
	}
	return d.s.Count(d.ix.Syms.Lookup(label))
}

// Fanout returns the average number of children per element — the
// branching factor the estimator expands child-step frontiers by.
// Every non-root node is some element's child, so (Nodes-1)/Elems.
func (d Doc) Fanout() float64 {
	if d.s == nil || d.s.Elems == 0 {
		return 1
	}
	f := float64(d.s.Nodes-1) / float64(d.s.Elems)
	if f < 1 {
		return 1
	}
	return f
}

// Fingerprint identifies the statistics record: two equal fingerprints
// mean the same record (same document version chain state), so a
// planner decision keyed by (query, Fingerprint) is valid exactly as
// long as the statistics are. Zero for the zero Doc.
func (d Doc) Fingerprint() uint64 {
	if d.s == nil {
		return 0
	}
	return d.s.Gen
}

// Recount computes the statistics of ix by a full walk, bypassing the
// cached record — the oracle the O(|delta|) incremental maintenance is
// verified against in tests.
func Recount(ix *tree.Index) *tree.Stats { return tree.RecountStats(ix) }
