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
// Indexing stamps each node it covers with its ordinal and owning index.
// A stamp is written at most once and is never overwritten or cleared:
// indexing a tree that shares subtrees with an already-indexed document
// skips the stamped subtrees, which keep their owner, and this index
// simply does not cover them. OrdOf reports such foreign nodes as
// non-members, so evaluators take their slow paths there instead of
// reading another document's ordinals. Because nothing is ever restamped,
// any tree can be indexed while other goroutines evaluate documents that
// share nodes with it.
//
// An index publishes itself by stamping its root last, after NumNodes and
// Syms are final, so one atomic load of the root's stamp (IndexOf,
// EnsureIndex) observes a complete index without a lock.
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
	// Live is the number of nodes reachable from Root. Set on version
	// chain members (Adopt, Freeze, PathCopy), which own every node they
	// reach; it lags NumNodes by the dead (replaced) ordinals still
	// occupying a path-copied chain's numbering. Zero for plain indexes
	// and view chains (StampChain), which may not cover every node of
	// their tree.
	Live int
	// chain identifies the persistent version chain this snapshot
	// belongs to: every version produced from it by PathCopy shares the
	// same chain pointer, and epoch counts the version's distance from
	// the chain's freeze. Membership (OrdOf) accepts nodes stamped by
	// any ancestor version — the aliased, unchanged subtrees a path copy
	// shares by reference — because their ordinals and symbols are
	// stable across the chain. nil for plain evaluation indexes; a
	// materialized view stamped in place (StampChain) heads a chain of
	// one version.
	chain *chainID
	epoch int32
}

// chainID is an identity token shared by every version of one
// path-copied document chain. Besides its pointer it carries the chain's
// serialized image and its subtree label masks, each built at most once
// (see Image and Below), whether a read of the chain has been noted
// (see ReadImage and ReadMasks), and its table of recorded transform
// answers (see ReadAnswer), made on first use.
type chainID struct {
	img   atomic.Pointer[Image]
	below atomic.Pointer[[]uint64]
	read  atomic.Bool
	ans   atomic.Pointer[answers]
}

// indexMu serializes the first indexing of unstamped trees, so concurrent
// evaluations of the same document build its index exactly once and two
// trees sharing unstamped nodes never race to stamp them.
var indexMu sync.Mutex

// IndexOf returns the index rooted at doc, or nil when doc was never
// indexed as a document (it is unstamped, or an interior node of another
// document's index).
func IndexOf(doc *Node) *Index {
	if ix := doc.idx.Load(); ix != nil && ix.Root == doc {
		return ix
	}
	return nil
}

// EnsureIndex returns the index owning doc, building one on first use.
// It is safe to call from any number of goroutines. Once doc is stamped
// the answer is one lock-free load: the index rooted at doc, or — for an
// interior node of an indexed tree — the owner's index, whose ordinals
// and symbols stay valid for the subtree.
func EnsureIndex(doc *Node) *Index {
	if ix := doc.idx.Load(); ix != nil && (ix.Root == nil || ix.Root.idx.Load() == ix) {
		return ix
	}
	indexMu.Lock()
	defer indexMu.Unlock()
	if ix := doc.idx.Load(); ix != nil {
		// Stamped while we waited, or an interior node of a tree whose
		// indexing (under this lock) has now finished.
		return ix
	}
	ix := &Index{Root: doc, Syms: NewSymbols()}
	stampLocked(ix)
	return ix
}

// StampChain makes the unstamped part of the tree at doc the head of a
// new version chain, in place: every node reachable from doc through
// unstamped nodes gets an ordinal of the chain, and every stamped node
// keeps its stamp. It is how a materialized view becomes a chain of its
// own, with an image (see Image) covering the nodes the view created,
// while the subtrees it shares with its base stay the base chain's. It
// returns nil, stamping nothing, when doc is already stamped.
//
// The unstamped nodes must belong to the caller alone — no other tree
// links them, and no other goroutine holds them — until it publishes
// the result. Live stays zero: the chain does not own the stamped
// subtrees its root reaches.
func StampChain(doc *Node) *Index {
	indexMu.Lock()
	defer indexMu.Unlock()
	if doc.idx.Load() != nil {
		return nil
	}
	ix := &Index{Root: doc, Syms: NewSymbols(), chain: &chainID{}}
	stampLocked(ix)
	return ix
}

// stampLocked numbers and stamps, in preorder, every node reachable
// from ix.Root through unstamped nodes, interning their labels and
// attribute names into ix.Syms, and publishes ix by stamping the root
// last (indexMu held, ix.Root unstamped).
func stampLocked(ix *Index) {
	doc, syms := ix.Root, ix.Syms
	// Iterative preorder walk: documents admitted by a generous
	// WithMaxDepth must not overflow the goroutine stack here.
	ord := int32(0)
	stack := make([]*Node, 0, 64)
	stack = append(stack, doc)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.idx.Load() != nil {
			// Stamped by another index, and so is its whole subtree (an
			// index stamps every unstamped node below the ones it
			// covers). The stamp is final: readers of that document keep
			// their ordinals, and this index does not cover the subtree.
			continue
		}
		n.ord = ord
		ord++
		if n.Kind == Element {
			if !syms.covers(n.Sym, n.Label) {
				n.Sym = syms.Intern(n.Label)
			}
			for i := range n.Attrs {
				syms.Intern(n.Attrs[i].Name)
			}
		}
		if n != doc {
			n.idx.Store(ix)
		}
		// Push children in reverse so they pop in document order.
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
	ix.NumNodes = int(ord)
	doc.idx.Store(ix)
}

// Adopt makes doc the head of a new version chain, the form the
// versioned store keeps documents in. A tree its own root index owns
// whole and that heads no chain yet — a freshly parsed document — is
// adopted in place: one walk confirms the ownership PathCopy shares by.
// Anything else is copied by Freeze: a published snapshot root, an
// interior node, or a tree holding nodes another index stamped.
//
// The caller hands doc over: it must be private (no other goroutine holds
// it) and is never touched again except through the returned root.
func Adopt(doc *Node) (*Node, *Index, CopyStats) {
	ix := EnsureIndex(doc)
	if ix.Root == doc && ix.chain == nil && ownsAll(ix) {
		ix.Live = ix.NumNodes
		ix.chain = &chainID{}
		return doc, ix, CopyStats{}
	}
	return Freeze(doc, ix)
}

// ownsAll reports whether ix stamped every node reachable from its root.
func ownsAll(ix *Index) bool {
	stack := make([]*Node, 0, 64)
	stack = append(stack, ix.Root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !ix.Contains(n) {
			return false
		}
		stack = append(stack, n.Children...)
	}
	return true
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
// exactly the SAX event order of start tags and text runs). The first
// node added is the document node; its stamp waits for Finish.
func (b *IndexBuilder) Add(n *Node) {
	n.ord = b.next
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
	if b.ix.Root == nil {
		b.ix.Root = n
		return
	}
	n.idx.Store(b.ix)
}

// Finish freezes the symbol table and publishes the index on doc, which
// must be the first node that was added.
func (b *IndexBuilder) Finish(doc *Node) *Index {
	b.ix.NumNodes = int(b.next)
	doc.idx.Store(b.ix)
	return b.ix
}

// OrdOf returns n's preorder ordinal and whether n is a member of this
// index. Nodes another index stamped report false, which the evaluators
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
// stamped Sym is trusted; foreign nodes (shared subtrees another index
// stamped first, whose Sym fields point into that index's table) are
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
