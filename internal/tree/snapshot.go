package tree

import "unsafe"

// This file holds the freeze half of the versioned document store's
// snapshot machinery: copying an arbitrary tree into a fresh, fully
// owned snapshot that starts a new version chain. Commits against an
// existing chain take the cheap path instead — PathCopy (persist.go)
// copies only the spine the update touched and shares every other
// subtree with the previous version by reference — and a freshly parsed
// tree is adopted in place (Adopt, index.go). Freeze remains the Θ(|T|)
// entry point: ingestion of a tree the caller keeps, of a tree that
// shares nodes with other documents, and the compaction fallback that
// renumbers a chain whose ordinal space has grown past twice its live
// size.

// CopyStats reports the work of one Freeze or PathCopy.
type CopyStats struct {
	// Nodes is the number of nodes copied: every node of the new
	// snapshot for a Freeze, only the new (spine and inserted) nodes
	// for a PathCopy.
	Nodes int
	// Bytes approximates the heap bytes newly retained by the copy: the
	// node structs and their attribute and child slices. Label and
	// character-data strings are shared with the source (Go strings are
	// immutable), so they are not counted.
	Bytes int64
	// SharedWithBase counts source nodes reused from the base index by
	// reference — for a commit, how much of the update's result the
	// copy-on-write evaluation kept of the previous snapshot. A Freeze
	// copies those nodes anyway (it only counts them); a PathCopy
	// aliases them.
	SharedWithBase int
}

// nodeBytes is the approximate retained size of one copied node.
const nodeBytes = int64(unsafe.Sizeof(Node{}))

// attrBytes is the approximate retained size of one copied attribute.
const attrBytes = int64(unsafe.Sizeof(Attr{}))

// ptrBytes is the retained size of one child-slice entry.
const ptrBytes = int64(unsafe.Sizeof((*Node)(nil)))

// arena allocates the nodes of one Freeze in chunks — the first holds
// arenaMinChunk nodes and each later one doubles, up to arenaMaxChunk —
// so a tiny document retains a few hundred bytes of node storage while
// a large one is laid out in long contiguous runs. Chunks are never
// reallocated: a node's address is stable for as long as any later
// version aliases it. The atomic idx field of each node is written
// exactly once, before the snapshot is published.
type arena struct {
	cur []Node // current chunk: len used, cap allocated
}

const (
	arenaMinChunk = 8
	arenaMaxChunk = 256
)

// alloc returns the next arena slot holding a copy of src's payload.
func (a *arena) alloc(src *Node) *Node {
	if len(a.cur) == cap(a.cur) {
		a.cur = make([]Node, 0, min(max(2*cap(a.cur), arenaMinChunk), arenaMaxChunk))
	}
	a.cur = a.cur[:len(a.cur)+1]
	dst := &a.cur[len(a.cur)-1]
	dst.copyPayload(src)
	return dst
}

// copyPayload copies src's kind, label, data and attributes — never the
// children or the index stamp — into the zero node dst.
func (dst *Node) copyPayload(src *Node) {
	dst.Kind = src.Kind
	dst.Sym = src.Sym
	dst.Label = src.Label
	dst.Data = src.Data
	if len(src.Attrs) > 0 {
		dst.Attrs = make([]Attr, len(src.Attrs))
		copy(dst.Attrs, src.Attrs)
	}
}

// Freeze deep-copies the subtree rooted at src into a fresh, arena-
// backed tree that shares no nodes with any other document, indexing
// it in the same pass: every copied node is stamped with
// its preorder ordinal, labels and attribute names are interned, and
// the resulting index starts a new version chain — ready to be
// published (via an atomic pointer) to lock-free readers and to serve
// as the base of PathCopy commits.
//
// base, when non-nil, is the index of the document src derives from
// (for a compaction, the previous snapshot): its frozen symbol table is
// cloned so symbols stamped on nodes copied from it keep their ids and
// the walk skips the intern lookup for them, and the same pass counts
// how many source nodes base owns (CopyStats.SharedWithBase).
//
// src itself is only read, never written, so it may share subtrees with
// a live snapshot (the intended input is exactly the structurally
// sharing result of evaluating an update over one).
func Freeze(src *Node, base *Index) (*Node, *Index, CopyStats) {
	syms := NewSymbols()
	if base != nil {
		syms = base.Syms.Clone()
	}
	var stats CopyStats
	ix := &Index{Syms: syms, chain: &chainID{}}
	var ar arena
	ord := int32(0)
	// Iterative walk copying and stamping each node as it is popped, with
	// children pushed in reverse: ordinals are assigned in strict preorder
	// (document order) — the evaluators' ordinal-based anchoring and dedup
	// rely on that order, not just on density — and the arena is laid out
	// in the same order, so every later document-order walk reads memory
	// front to back.
	type frame struct {
		src    *Node
		parent *Node // copy whose child slot receives this node's copy
		slot   int
	}
	var root *Node
	stack := []frame{{src: src}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := ar.alloc(f.src)
		if f.parent == nil {
			root = n
		} else {
			f.parent.Children[f.slot] = n
		}
		n.ord = ord
		ord++
		stats.Nodes++
		stats.Bytes += nodeBytes + int64(len(n.Attrs))*attrBytes
		if n.Kind == Element {
			if !syms.covers(n.Sym, n.Label) {
				n.Sym = syms.Intern(n.Label)
			}
			for i := range n.Attrs {
				syms.Intern(n.Attrs[i].Name)
			}
		}
		n.idx.Store(ix)
		if base != nil && base.Contains(f.src) {
			stats.SharedWithBase++
		}
		nc := len(f.src.Children)
		if nc == 0 {
			continue
		}
		n.Children = make([]*Node, nc)
		stats.Bytes += int64(nc) * ptrBytes
		for i := nc - 1; i >= 0; i-- {
			stack = append(stack, frame{f.src.Children[i], n, i})
		}
	}
	ix.Root = root
	ix.NumNodes = int(ord)
	ix.Live = int(ord)
	return root, ix, stats
}
