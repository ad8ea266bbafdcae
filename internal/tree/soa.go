package tree

import (
	"io"
)

// This file holds the structure-of-arrays core of sealed documents: a
// sealed snapshot is described by contiguous ordinal-indexed columns —
// label symbols, parent / first-child / next-sibling ordinals, subtree
// sizes, text spans and attribute ranges — stored in fixed-size chunks
// ("pages") that successive versions of a document share by reference.
//
// The pointer graph of *Node values remains the navigation surface the
// evaluators consume, but for a sealed snapshot the nodes themselves are
// values inside arena chunks (allocated ChunkSize at a time by Freeze
// and PathCopy), and every per-ordinal fact the write path and the
// serializer need lives in the columns. A commit (PathCopy) produces the
// next version by copying only the chunks it writes — the tail chunks
// holding the new ordinals and the chunks holding link fixups for the
// spine's children — and aliasing every other chunk of every column from
// the previous version. That is what turns the former Θ(|T|)
// whole-tree snapshot copy into an O(|delta|) path copy.

// ChunkShift sets the chunk (page) size of the SoA columns and node
// arenas: 1<<ChunkShift entries per chunk. 256 matches the evaluators'
// annotation pages: small enough that the per-commit copy-on-write tax
// (one tail chunk per column) stays a few KB, large enough that full
// documents stay cache-friendly contiguous runs.
const ChunkShift = 8

// ChunkSize is the number of ordinals per column chunk.
const ChunkSize = 1 << ChunkShift

const chunkMask = ChunkSize - 1

// NilOrd is the null ordinal used by the link columns: a parent link of
// NilOrd marks the root, a first-child or next-sibling link of NilOrd
// marks "none".
const NilOrd = int32(-1)

// Cols is the structure-of-arrays view of one sealed snapshot. Each
// column is a slice of chunks indexed [ord>>ChunkShift][ord&chunkMask];
// chunks are immutable once the snapshot is published and are shared by
// reference between versions of a document (PathCopy copies only the
// chunks it must write). All columns cover ordinals [0, width); after a
// path copy some ordinals are dead (their node was replaced or deleted
// in this version) — dead slots keep their last value and are simply
// never reached from the live root.
type Cols struct {
	width int32

	node   [][]*Node  // ordinal -> node (identity: chunk + slot)
	kind   [][]Kind   // ordinal -> node kind
	sym    [][]SymID  // ordinal -> element label symbol (NoSym otherwise)
	parent [][]int32  // ordinal -> parent ordinal (NilOrd for the root)
	first  [][]int32  // ordinal -> first-child ordinal (NilOrd: leaf)
	next   [][]int32  // ordinal -> next-sibling ordinal (NilOrd: last)
	size   [][]int32  // ordinal -> subtree size (counting the node)
	text   [][]string // ordinal -> character-data span (text nodes)
	attrs  [][][]Attr // ordinal -> attribute range (shares backing arrays)
}

// Width returns the ordinal-space width covered by the columns.
func (c *Cols) Width() int32 { return c.width }

// NumChunks returns the chunk count of one column — the unit of
// between-version sharing that Commit stats report.
func (c *Cols) NumChunks() int {
	return int(c.width+chunkMask) >> ChunkShift
}

func (c *Cols) nodeAt(ord int32) *Node   { return c.node[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) kindAt(ord int32) Kind    { return c.kind[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) symAt(ord int32) SymID    { return c.sym[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) parentAt(ord int32) int32 { return c.parent[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) firstAt(ord int32) int32  { return c.first[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) nextAt(ord int32) int32   { return c.next[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) sizeAt(ord int32) int32   { return c.size[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) textAt(ord int32) string  { return c.text[ord>>ChunkShift][ord&chunkMask] }
func (c *Cols) attrsAt(ord int32) []Attr { return c.attrs[ord>>ChunkShift][ord&chunkMask] }

// NodeRef is the stable identity of a node inside a sealed snapshot
// chain: the snapshot's index plus the node's ordinal. Because chunks
// are shared between versions, a node that survives a commit keeps both
// its ordinal and its *Node address — (chunk, slot) identity — in every
// later version, which is what lets view maintenance memos and delta
// walks carry per-node state across commits without translation.
//
// Identity rules (for view/IVM authors):
//
//   - Refs are only meaningful for ordinals reached through the owning
//     snapshot's live tree (OrdOf, or a walk from Root): a path copy
//     leaves dead ordinals behind whose slots still hold their last
//     value.
//   - A node's ref is valid in every later version of the chain that
//     still reaches the node; OrdOf answers membership for exactly
//     those versions.
//   - Compaction (see PathCopy) starts a fresh chain with a fresh
//     numbering; refs do not survive it, which OrdOf again reports.
type NodeRef struct {
	// Ix is the sealed snapshot index the ordinal is resolved against.
	Ix *Index
	// Ord is the node's ordinal within the chain's numbering.
	Ord int32
}

// Ref returns the ref of n in this snapshot, and whether n is a member.
func (ix *Index) Ref(n *Node) (NodeRef, bool) {
	ord, ok := ix.OrdOf(n)
	if !ok {
		return NodeRef{}, false
	}
	return NodeRef{Ix: ix, Ord: ord}, true
}

// Node resolves the ref through the node column.
func (r NodeRef) Node() *Node {
	if r.Ix == nil || r.Ix.cols == nil || r.Ord < 0 || r.Ord >= r.Ix.cols.width {
		return nil
	}
	return r.Ix.cols.nodeAt(r.Ord)
}

// Chunk returns the (chunk, slot) coordinates of the ref — the
// between-version sharing unit the ordinal lives in.
func (r NodeRef) Chunk() (chunk, slot int32) {
	return r.Ord >> ChunkShift, r.Ord & chunkMask
}

// Cols returns the snapshot's structure-of-arrays columns, or nil when
// the index is not a sealed SoA snapshot (plain evaluation indexes built
// by EnsureIndex carry no columns).
func (ix *Index) Cols() *Cols { return ix.cols }

// NodeAt returns the node with the given ordinal, or nil when the index
// has no columns or the ordinal is out of range. The ordinal must be
// live in this snapshot (see NodeRef identity rules).
func (ix *Index) NodeAt(ord int32) *Node {
	if ix.cols == nil || ord < 0 || ord >= ix.cols.width {
		return nil
	}
	return ix.cols.nodeAt(ord)
}

// ParentOf returns the ordinal of n's parent in the snapshot, or NilOrd
// for the root (and false when n is not a member or the index has no
// columns). This is upward navigation without parent pointers in the
// nodes — the columns carry it.
func (ix *Index) ParentOf(n *Node) (int32, bool) {
	if ix.cols == nil {
		return NilOrd, false
	}
	ord, ok := ix.OrdOf(n)
	if !ok {
		return NilOrd, false
	}
	return ix.cols.parentAt(ord), true
}

// SizeOf returns the subtree size of n recorded in the snapshot, in
// O(1), and whether n is a member of a snapshot with columns.
func (ix *Index) SizeOf(n *Node) (int32, bool) {
	if ix.cols == nil {
		return 0, false
	}
	ord, ok := ix.OrdOf(n)
	if !ok {
		return 0, false
	}
	return ix.cols.sizeAt(ord), true
}

// colsBuilder accumulates columns during a freeze or path copy. Chunks
// flagged fresh were allocated by this construction and may be written
// in place; every other chunk is shared with the previous version and
// is copied on first write. Copy-on-write is per column where it pays:
// the parent and next link fixups a path copy performs on aliased
// children touch old chunks, and copying only the 4-byte link column
// (freshParent / freshNext) instead of the whole row keeps the fixup
// tax at ~1KB per touched chunk.
type colsBuilder struct {
	c           *Cols
	fresh       []bool // per chunk: all columns owned by this construction
	freshParent []bool // per chunk: parent column owned
	freshNext   []bool // per chunk: next column owned
	// bytes accumulates the heap cost of every chunk this construction
	// allocated or copied, for CopyStats.Bytes.
	bytes int64
}

// linkChunkBytes is the copy cost of one link-column chunk.
const linkChunkBytes = int64(ChunkSize) * 4

// colsChunkBytes approximates the heap bytes of one chunk across all
// columns: the unit CopyStats.Bytes charges per fully allocated chunk
// (8B node pointer + 1B kind + 4B×5 links/sym/size + 16B string header
// + 24B slice header per ordinal).
const colsChunkBytes = int64(ChunkSize) * (8 + 1 + 4*5 + 16 + 24)

// newColsBuilder starts a builder from scratch (prev nil — Freeze) or
// from the previous version's columns (PathCopy), which are aliased
// chunk-by-chunk until written.
func newColsBuilder(prev *Cols) *colsBuilder {
	b := &colsBuilder{c: &Cols{}}
	if prev != nil {
		n := prev.NumChunks()
		b.c.width = prev.width
		b.c.node = append([][]*Node(nil), prev.node...)
		b.c.kind = append([][]Kind(nil), prev.kind...)
		b.c.sym = append([][]SymID(nil), prev.sym...)
		b.c.parent = append([][]int32(nil), prev.parent...)
		b.c.first = append([][]int32(nil), prev.first...)
		b.c.next = append([][]int32(nil), prev.next...)
		b.c.size = append([][]int32(nil), prev.size...)
		b.c.text = append([][]string(nil), prev.text...)
		b.c.attrs = append([][][]Attr(nil), prev.attrs...)
		b.fresh = make([]bool, n)
		b.freshParent = make([]bool, n)
		b.freshNext = make([]bool, n)
	}
	return b
}

// grow extends the ordinal space to width, appending fresh chunks (and
// copying the shared partial tail chunk, if any) so that every ordinal
// in [0, width) is addressable.
func (b *colsBuilder) grow(width int32) {
	if width <= b.c.width {
		return
	}
	oldChunks := len(b.fresh)
	newChunks := int(width+chunkMask) >> ChunkShift
	// The previous tail chunk is partial when the old width is not
	// chunk-aligned: appending into it would write memory the previous
	// version shares, so it is copied (copy-on-write) like any other
	// written chunk.
	if oldChunks > 0 && b.c.width&chunkMask != 0 {
		b.own(int32(oldChunks - 1))
	}
	for ci := oldChunks; ci < newChunks; ci++ {
		b.c.node = append(b.c.node, make([]*Node, ChunkSize))
		b.c.kind = append(b.c.kind, make([]Kind, ChunkSize))
		b.c.sym = append(b.c.sym, make([]SymID, ChunkSize))
		b.c.parent = append(b.c.parent, make([]int32, ChunkSize))
		b.c.first = append(b.c.first, make([]int32, ChunkSize))
		b.c.next = append(b.c.next, make([]int32, ChunkSize))
		b.c.size = append(b.c.size, make([]int32, ChunkSize))
		b.c.text = append(b.c.text, make([]string, ChunkSize))
		b.c.attrs = append(b.c.attrs, make([][]Attr, ChunkSize))
		b.fresh = append(b.fresh, true)
		b.freshParent = append(b.freshParent, true)
		b.freshNext = append(b.freshNext, true)
		b.bytes += colsChunkBytes
	}
	b.c.width = width
}

// own makes chunk ci fully writable, copying every column's chunk when
// it is still shared with the previous version.
func (b *colsBuilder) own(ci int32) {
	if b.fresh[ci] {
		return
	}
	b.c.node[ci] = append([]*Node(nil), b.c.node[ci]...)
	b.c.kind[ci] = append([]Kind(nil), b.c.kind[ci]...)
	b.c.sym[ci] = append([]SymID(nil), b.c.sym[ci]...)
	if !b.freshParent[ci] {
		b.c.parent[ci] = append([]int32(nil), b.c.parent[ci]...)
	}
	b.c.first[ci] = append([]int32(nil), b.c.first[ci]...)
	if !b.freshNext[ci] {
		b.c.next[ci] = append([]int32(nil), b.c.next[ci]...)
	}
	b.c.size[ci] = append([]int32(nil), b.c.size[ci]...)
	b.c.text[ci] = append([]string(nil), b.c.text[ci]...)
	b.c.attrs[ci] = append([][]Attr(nil), b.c.attrs[ci]...)
	b.fresh[ci] = true
	b.freshParent[ci] = true
	b.freshNext[ci] = true
	b.bytes += colsChunkBytes
}

// setRow writes the full column row of ord. The caller must have grown
// the builder past ord.
func (b *colsBuilder) setRow(ord int32, n *Node, parent, first, next, size int32) {
	ci := ord >> ChunkShift
	b.own(ci)
	s := ord & chunkMask
	b.c.node[ci][s] = n
	b.c.kind[ci][s] = n.Kind
	b.c.sym[ci][s] = NoSym
	if n.Kind == Element {
		b.c.sym[ci][s] = n.Sym
	}
	b.c.parent[ci][s] = parent
	b.c.first[ci][s] = first
	b.c.next[ci][s] = next
	b.c.size[ci][s] = size
	b.c.text[ci][s] = n.Data
	b.c.attrs[ci][s] = n.Attrs
}

// setParent rewrites the parent link of ord if it differs, copying only
// the parent column's chunk when it is still shared.
func (b *colsBuilder) setParent(ord, parent int32) {
	ci := ord >> ChunkShift
	if b.c.parent[ci][ord&chunkMask] == parent {
		return
	}
	if !b.fresh[ci] && !b.freshParent[ci] {
		b.c.parent[ci] = append([]int32(nil), b.c.parent[ci]...)
		b.freshParent[ci] = true
		b.bytes += linkChunkBytes
	}
	b.c.parent[ci][ord&chunkMask] = parent
}

// setNext rewrites the next-sibling link of ord if it differs, copying
// only the next column's chunk when it is still shared.
func (b *colsBuilder) setNext(ord, next int32) {
	ci := ord >> ChunkShift
	if b.c.next[ci][ord&chunkMask] == next {
		return
	}
	if !b.fresh[ci] && !b.freshNext[ci] {
		b.c.next[ci] = append([]int32(nil), b.c.next[ci]...)
		b.freshNext[ci] = true
		b.bytes += linkChunkBytes
	}
	b.c.next[ci][ord&chunkMask] = next
}

// chunkStats reports how many chunks this construction touched (fully
// or in a single link column) versus left aliased from the base.
func (b *colsBuilder) chunkStats() (copied, shared int) {
	for ci := range b.fresh {
		if b.fresh[ci] || b.freshParent[ci] || b.freshNext[ci] {
			copied++
		} else {
			shared++
		}
	}
	return
}

// finish returns the columns.
func (b *colsBuilder) finish() *Cols {
	return b.c
}

// buildCols constructs the columns for a fully-stamped tree in one walk
// over it, trusting the ordinals already on the nodes (the parser's
// IndexBuilder stamped them in preorder; Seal calls this at adoption so
// a freshly parsed document becomes an SoA snapshot without a second
// deep copy). Nodes not owned by ix (sealed-foreign subtrees skipped by
// indexing) make the tree non-columnar; buildCols returns nil for them
// and the snapshot simply serves without columns.
func buildCols(ix *Index) *Cols {
	b := newColsBuilder(nil)
	b.grow(int32(ix.NumNodes))
	c := b.c
	// Preorder walk with an explicit stack (documents can be arbitrarily
	// deep), filling every column except size.
	type item struct {
		n           *Node
		parent, sib int32
	}
	stack := make([]item, 0, 64)
	stack = append(stack, item{ix.Root, NilOrd, NilOrd})
	seen := 0
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ord, ok := ix.OrdOf(it.n)
		if !ok {
			return nil
		}
		seen++
		first := NilOrd
		if len(it.n.Children) > 0 {
			fo, ok := ix.OrdOf(it.n.Children[0])
			if !ok {
				return nil
			}
			first = fo
		}
		b.setRow(ord, it.n, it.parent, first, it.sib, 1)
		// Each child's next-sibling link is its right neighbour's
		// ordinal; push in reverse so they pop in document order.
		next := NilOrd
		for i := len(it.n.Children) - 1; i >= 0; i-- {
			ch := it.n.Children[i]
			stack = append(stack, item{ch, ord, next})
			co, ok := ix.OrdOf(ch)
			if !ok {
				return nil
			}
			next = co
		}
	}
	if seen != ix.NumNodes {
		return nil
	}
	// Sizes: in a contiguous preorder numbering every child ordinal is
	// larger than its parent's, so a single reverse scan accumulates each
	// subtree into its parent before the parent is itself accumulated.
	// All chunks are fresh here, so the writes are in place.
	for ord := int32(ix.NumNodes) - 1; ord > 0; ord-- {
		p := c.parentAt(ord)
		c.size[p>>ChunkShift][p&chunkMask] += c.sizeAt(ord)
	}
	return b.finish()
}

// WriteXML serializes the snapshot by scanning the columns — label
// symbols resolved through the frozen table, text and attribute spans
// emitted without visiting the node structs' child slices. It drives the
// same Emitter as Node.WriteXML, so the bytes are identical, and falls
// back to that pointer walk when the index carries no columns.
func (ix *Index) WriteXML(w io.Writer) error {
	if ix.cols == nil {
		return ix.Root.WriteXML(w)
	}
	e := NewEmitter(w)
	ord, _ := ix.OrdOf(ix.Root)
	ix.writeOrd(&e, ord)
	return e.Flush()
}

// writeOrd streams the subtree at ord using the first/next link columns
// with an explicit open-element stack (documents can be arbitrarily
// deep), stopping once a write has failed.
func (ix *Index) writeOrd(e *Emitter, ord int32) {
	c := ix.cols
	syms := ix.Syms
	// stack holds the ordinals of open elements awaiting their end tag.
	var stack []int32
	cur := ord
	for e.err == nil {
		switch c.kindAt(cur) {
		case Document:
			if f := c.firstAt(cur); f != NilOrd {
				stack = append(stack, cur)
				cur = f
				continue
			}
		case Text:
			e.Text(c.textAt(cur))
		case Element:
			e.StartTag(syms.Name(c.symAt(cur)), c.attrsAt(cur))
			if f := c.firstAt(cur); f != NilOrd {
				e.Raw(">")
				stack = append(stack, cur)
				cur = f
				continue
			}
			e.Raw("/>")
		}
		// Leaf done: advance to the next sibling, closing elements as
		// sibling chains run out.
		for {
			if cur == ord {
				return
			}
			if nx := c.nextAt(cur); nx != NilOrd {
				cur = nx
				break
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c.kindAt(top) == Element {
				e.EndTag(syms.Name(c.symAt(top)))
			}
			cur = top
		}
	}
}
