package tree

import (
	"sync"
	"sync/atomic"
)

// Index is the dense per-document view of a tree: a frozen symbol table
// covering every element label and attribute name, plus a preorder
// numbering of all nodes (document node first, then each subtree in
// document order). Ordinals let the evaluators replace
// map[*Node]-annotation with slices indexed by node ordinal, and symbols
// let the automata step on integer comparisons; both are the substrate
// for the dense-state evaluation paths and for future parallel subtree
// evaluation.
//
// An Index belongs to exactly one document node. Indexing mutates the
// nodes it reaches (it stamps each with its ordinal and owning index), so
// a node can be a member of at most one Index at a time: re-indexing a
// tree that shares subtrees with an already-indexed document steals those
// nodes. OrdOf detects stolen or foreign nodes and reports them as
// non-members, so evaluators degrade to their slow paths instead of
// reading another document's ordinals. Do not index a tree concurrently
// with evaluations over another tree that shares nodes with it.
//
// A sealed Index (see Seal, Freeze and PathCopy) is the exception to the
// stealing rule: its nodes are permanently owned — indexing a tree that
// shares subtrees with a sealed document skips those subtrees instead of
// stealing them, and DropIndex is a no-op. Sealing is what makes
// versioned store snapshots safe to read without locks while other trees
// are being indexed.
type Index struct {
	// Root is the document node the index was built from. It is nil on
	// the membership stamp PathCopy puts on a version's non-root nodes —
	// an Index equal to the version's in everything else.
	Root *Node
	// Syms holds every element label and attribute name of the document
	// (plus any symbols interned by the builder before the freeze). It is
	// frozen: treat as read-only.
	Syms *Symbols
	// NumNodes is the width of the ordinal space: every ordinal the
	// index can hand out is in 0..NumNodes-1, which is what sizes the
	// evaluators' per-ordinal annotation arrays. For a freshly indexed
	// or frozen document ordinals are a dense preorder numbering with
	// the document node at 0; for later versions of a path-copied chain
	// the numbering keeps preorder density per version's new nodes only
	// — replaced ordinals become holes, new nodes append at the tail —
	// so NumNodes can exceed the live node count (see Live).
	NumNodes int
	// Live is the number of nodes actually reachable from Root. Equal
	// to NumNodes for freshly indexed documents; after path copies it
	// lags NumNodes by the dead (replaced) ordinals still occupying the
	// numbering. Zero for indexes built before sealing (use NumNodes).
	Live int
	// sealed marks the index (and every node it owns) immutable: the
	// nodes can never be re-stamped by a later indexing and the index can
	// never be dropped. It is written only before the tree is published
	// to other goroutines (Seal's contract), so the lock-free fast paths
	// may read it without synchronization.
	sealed bool
	// chain identifies the persistent version chain this sealed snapshot
	// belongs to: every version produced from it by PathCopy shares the
	// same chain pointer, and epoch counts the version's distance from
	// the chain's freeze. Membership (OrdOf) accepts nodes stamped by
	// any ancestor version — the aliased, unchanged subtrees a path copy
	// shares by reference — because their ordinals and symbols are
	// stable across the chain. nil for non-chain indexes: plain
	// evaluation indexes, and sealed trees containing foreign sealed
	// subtrees, which PathCopy adopts by a full Freeze.
	chain *chainID
	epoch int32
	// stats caches the per-document statistics record (see stats.go):
	// eager for sealed snapshots, computed on first Stats() call for
	// plain indexes. Atomic because lazy computation may race between
	// concurrent readers of a shared document.
	stats atomic.Pointer[Stats]
}

// chainID is an identity token shared by every version of one
// path-copied document chain; only its pointer matters.
type chainID struct{ _ byte }

// Sealed reports whether the index is sealed — owned by an immutable
// snapshot whose nodes can never be stolen or mutated.
func (ix *Index) Sealed() bool { return ix.sealed }

// indexMu serializes index construction and the cached-index check, so
// concurrent evaluations of the same document build its index exactly
// once and later callers observe fully-stamped nodes (the mutex acquire
// orders the stamp writes before any ordinal read).
var indexMu sync.Mutex

// IndexOf returns the document's current index, or nil when it was never
// indexed (or its index was superseded).
func IndexOf(doc *Node) *Index {
	if ix := doc.idx.Load(); ix != nil && ix.sealed && ix.Root == doc {
		return ix
	}
	indexMu.Lock()
	defer indexMu.Unlock()
	if ix := doc.idx.Load(); ix != nil && ix.Root == doc {
		return ix
	}
	return nil
}

// EnsureIndex returns the document's index, building it on first use.
// It is safe to call from concurrent evaluations of the same document;
// see the Index comment for the sharing caveat.
//
// For members of a sealed snapshot the hot path is lock-free: a sealed
// index is immutable and its nodes can never be re-stamped, so the
// cached pointer is returned without taking the package mutex. This is
// what lets any number of store readers evaluate against one snapshot
// with zero lock traffic. (When doc is an interior node of a sealed
// snapshot the owner's index is returned: its ordinals and symbols
// remain valid for the subtree.)
func EnsureIndex(doc *Node) *Index {
	if ix := doc.idx.Load(); ix != nil && ix.sealed {
		return ix
	}
	indexMu.Lock()
	defer indexMu.Unlock()
	if ix := doc.idx.Load(); ix != nil && (ix.Root == doc || ix.sealed) {
		return ix
	}
	return indexWithLocked(doc, NewSymbols())
}

// IndexWith builds doc's index against syms — the parser's TreeBuilder
// passes the table it interned labels into while building, so the walk
// reuses the Sym fields already stamped on the nodes. The caller must own
// syms (no concurrent readers); the table is frozen once IndexWith
// returns. When doc is already owned by a sealed index that index is
// returned unchanged: sealed trees are never re-indexed.
func IndexWith(doc *Node, syms *Symbols) *Index {
	indexMu.Lock()
	defer indexMu.Unlock()
	if ix := doc.idx.Load(); ix != nil && ix.sealed {
		return ix
	}
	return indexWithLocked(doc, syms)
}

func indexWithLocked(doc *Node, syms *Symbols) *Index {
	if cur := doc.idx.Load(); cur != nil && cur.sealed {
		// doc is (an interior node of) a sealed snapshot: nothing here
		// may be restamped. The owner's index covers the subtree.
		return cur
	}
	ix := &Index{Root: doc, Syms: syms}
	// Iterative preorder walk: documents admitted by a generous
	// WithMaxDepth must not overflow the goroutine stack here.
	ord := int32(0)
	stack := make([]*Node, 0, 64)
	stack = append(stack, doc)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur := n.idx.Load(); cur != nil && cur.sealed {
			// n (and, by construction, its whole subtree) is owned by a
			// sealed snapshot. Stealing it would corrupt lock-free
			// readers of that snapshot, so the subtree keeps its owner
			// and this index simply does not cover it — OrdOf reports
			// non-membership and evaluators use their slow paths there.
			continue
		}
		n.ord = ord
		n.idx.Store(ix)
		ord++
		if n.Kind == Element {
			if !syms.covers(n.Sym, n.Label) {
				n.Sym = syms.Intern(n.Label)
			}
			for i := range n.Attrs {
				syms.Intern(n.Attrs[i].Name)
			}
		}
		// Push children in reverse so they pop in document order.
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	ix.NumNodes = int(ord)
	doc.idx.Store(ix)
	return ix
}

// Seal marks doc's index immutable, building the index first when doc
// has none. A sealed document's nodes can never be stolen by a later
// indexing, its index is never dropped, and EnsureIndex serves it
// lock-free — the properties the versioned store relies on for its
// snapshots.
//
// The caller must own doc exclusively: Seal is meant for the moment a
// private, fully-built tree is about to be published (for example via an
// atomic pointer), which is what makes the unsynchronized sealed reads
// of the fast paths safe. Sealing a tree other goroutines already
// evaluate is a data race.
func Seal(doc *Node) *Index {
	indexMu.Lock()
	defer indexMu.Unlock()
	ix := doc.idx.Load()
	if ix == nil || ix.Root != doc {
		ix = indexWithLocked(doc, NewSymbols())
	}
	ix.sealed = true
	if ix.Live == 0 {
		ix.Live = ix.NumNodes
	}
	// One walk while the whole tree is at hand collects the planner's
	// statistics (instead of a lazy walk on the first planned evaluation)
	// and decides whether the snapshot can head a version chain: PathCopy
	// shares by membership, so every reachable node must be owned by ix.
	// Trees containing foreign sealed subtrees stay chainless.
	if ix.chain == nil {
		s, foreign := recount(ix)
		ix.stats.Store(s)
		if foreign == 0 {
			ix.chain = &chainID{}
		}
	}
	return ix
}

// IndexBuilder stamps ordinals incrementally while a tree is being
// constructed in document order — the parser's TreeBuilder feeds every
// node through Add as it is created, so a freshly parsed document is
// fully indexed without a second walk over it. The tree must be private
// to the builder until Finish publishes the index.
type IndexBuilder struct {
	ix          *Index
	syms        *Symbols
	internAttrs bool
	next        int32
}

// NewIndexBuilder returns a builder interning into syms (a fresh table
// when nil). internAttrs controls whether Add interns attribute names;
// pass false when the event source already interned them into syms (the
// parser does), true otherwise.
func NewIndexBuilder(syms *Symbols, internAttrs bool) *IndexBuilder {
	if syms == nil {
		syms = NewSymbols()
	}
	return &IndexBuilder{ix: &Index{Syms: syms}, syms: syms, internAttrs: internAttrs}
}

// Add stamps n with the next preorder ordinal. Nodes must be added in
// document order (each node before its children, siblings left to right —
// exactly the SAX event order of start tags and text runs).
func (b *IndexBuilder) Add(n *Node) {
	n.ord = b.next
	n.idx.Store(b.ix)
	b.next++
	if n.Kind == Element {
		if !b.syms.covers(n.Sym, n.Label) {
			n.Sym = b.syms.Intern(n.Label)
		}
		if b.internAttrs {
			for i := range n.Attrs {
				b.syms.Intern(n.Attrs[i].Name)
			}
		}
	}
}

// Finish freezes the symbol table and publishes the index on doc, which
// must be the first node that was added.
func (b *IndexBuilder) Finish(doc *Node) *Index {
	b.ix.Root = doc
	b.ix.NumNodes = int(b.next)
	indexMu.Lock()
	doc.idx.Store(b.ix)
	indexMu.Unlock()
	return b.ix
}

// DropIndex detaches doc's cached index, forcing the next EnsureIndex to
// rebuild it. Callers that mutate an indexed tree in place (the
// copy-and-update baseline) drop the index afterwards, since ordinals and
// the symbol table no longer describe the mutated structure. Dropping a
// sealed index is a no-op: sealed trees are immutable, so their index
// never goes stale (and in-place mutation of them is rejected upstream).
func DropIndex(doc *Node) {
	indexMu.Lock()
	defer indexMu.Unlock()
	if ix := doc.idx.Load(); ix != nil && ix.sealed {
		return
	}
	doc.idx.Store(nil)
}

// OrdOf returns n's preorder ordinal and whether n is a member of this
// index. Nodes of other documents — including nodes this document shares
// with a more recently indexed tree — report false, which the evaluators
// treat as "use the slow path".
//
// For a path-copied version chain, nodes stamped by an ancestor version
// are members too: a path copy aliases every untouched subtree from the
// previous snapshot, and those nodes keep their ordinal (the chain's
// numbering is shared) and their symbol ids (the chain's table only
// grows). Nodes stamped by a *later* version are not members — they do
// not exist in this version's tree.
func (ix *Index) OrdOf(n *Node) (int32, bool) {
	o := n.idx.Load()
	if o == ix {
		return n.ord, true
	}
	if o != nil && ix.chain != nil && o.chain == ix.chain && o.epoch <= ix.epoch {
		return n.ord, true
	}
	return 0, false
}

// Contains reports membership of n in this index (chain-aware, like
// OrdOf).
func (ix *Index) Contains(n *Node) bool {
	o := n.idx.Load()
	if o == ix {
		return true
	}
	return o != nil && ix.chain != nil && o.chain == ix.chain && o.epoch <= ix.epoch
}

// SymOf returns n's label symbol in this index's table. For members —
// including nodes stamped by an ancestor version of the same chain,
// whose ids are stable because the chain's table only grows — the
// stamped Sym is trusted; foreign nodes (shared subtrees stolen by a
// more recent indexing, whose Sym fields point into another table) are
// resolved by name — NoSym when this table has never seen the label.
// Evaluators must use this, never a raw n.Sym, when stepping automata
// bound to ix.Syms: symbol ids are only comparable within one table.
func (ix *Index) SymOf(n *Node) SymID {
	o := n.idx.Load()
	if o == ix || (o != nil && ix.chain != nil && o.chain == ix.chain && o.epoch <= ix.epoch) {
		return n.Sym
	}
	return ix.Syms.Lookup(n.Label)
}
