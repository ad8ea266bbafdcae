package tree

import (
	"strings"
	"sync"
	"testing"
)

// buildTestDoc returns a small document built by hand (unindexed).
func buildTestDoc() *Node {
	return NewDocument(
		NewElement("db",
			NewElement("part",
				NewElement("pname", NewText("widget")),
				NewElement("price", NewText("9")).WithAttrs(Attr{Name: "cur", Value: "usd"}),
			),
			NewElement("part",
				NewElement("pname", NewText("gadget")),
			),
		),
	)
}

func TestFreezeStructureAndIndependence(t *testing.T) {
	src := buildTestDoc()
	EnsureIndex(src)

	root, ix, stats := Freeze(src, nil)
	if !Equal(src, root) {
		t.Fatalf("copy differs: got %s want %s", root, src)
	}
	if SharedNodes(src, root) != 0 {
		t.Fatal("snapshot copy shares nodes with its source")
	}
	if ix.chain == nil {
		t.Fatal("snapshot index heads no version chain")
	}
	if ix.Root != root {
		t.Fatal("index root is not the copy")
	}
	if want := src.Size(); ix.NumNodes != want || stats.Nodes != want {
		t.Fatalf("NumNodes=%d stats.Nodes=%d want %d", ix.NumNodes, stats.Nodes, want)
	}
	if stats.Bytes <= 0 {
		t.Fatalf("stats.Bytes=%d, want > 0", stats.Bytes)
	}
	// The published index is the one EnsureIndex serves, lock-free.
	if got := EnsureIndex(root); got != ix {
		t.Fatal("EnsureIndex does not return the snapshot index")
	}
	// The source document's own index is untouched.
	if got := IndexOf(src); got == nil || got == ix {
		t.Fatal("source index was disturbed by Freeze")
	}
}

// TestFreezePreorderOrdinals pins that ordinals are assigned in
// strict document order: compose's anchoring and dedup rely on ordinal
// comparisons meaning document-order comparisons.
func TestFreezePreorderOrdinals(t *testing.T) {
	src := buildTestDoc()
	root, ix, _ := Freeze(src, nil)
	want := int32(0)
	var walk func(n *Node)
	var fail bool
	walk = func(n *Node) {
		ord, ok := ix.OrdOf(n)
		if !ok || ord != want {
			fail = true
		}
		want++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if fail {
		t.Fatal("ordinals are not a preorder numbering")
	}
}

func TestFreezeClonesBaseSymbols(t *testing.T) {
	src := buildTestDoc()
	baseIx := EnsureIndex(src)
	root, ix, stats := Freeze(src, baseIx)
	if stats.SharedWithBase != src.Size() {
		t.Fatalf("SharedWithBase = %d, want %d (every source node is base-owned)",
			stats.SharedWithBase, src.Size())
	}
	if ix.Syms == baseIx.Syms {
		t.Fatal("snapshot shares the base symbol table instead of cloning it")
	}
	// Same names must keep their ids, so stamped Syms stay valid.
	for _, name := range []string{"db", "part", "pname", "price", "cur"} {
		if got, want := ix.Syms.Lookup(name), baseIx.Syms.Lookup(name); got != want || got == NoSym {
			t.Fatalf("symbol %q: clone id %d, base id %d", name, got, want)
		}
	}
	if !Equal(root, src) {
		t.Fatal("copy differs from its source")
	}
}

// owners returns the two kinds of index a shared subtree can belong to:
// a frozen snapshot and a plain evaluation index over a hand-built tree.
func owners() map[string]func() (*Node, *Index) {
	return map[string]func() (*Node, *Index){
		"frozen": func() (*Node, *Index) {
			root, ix, _ := Freeze(buildTestDoc(), nil)
			return root, ix
		},
		"plain": func() (*Node, *Index) {
			doc := buildTestDoc()
			return doc, EnsureIndex(doc)
		},
	}
}

// TestIndexingSkipsSealedSubtrees pins the write-once stamp rule:
// indexing a tree that shares subtrees with an indexed document — a
// frozen snapshot or a plain one — leaves the shared nodes with their
// owner and simply does not cover them.
func TestIndexingSkipsSealedSubtrees(t *testing.T) {
	for name, build := range owners() {
		t.Run(name, func(t *testing.T) {
			ownerRoot, ownerIx := build()
			// Build a tree that shares the owner's first <part> subtree.
			sharedPart := ownerRoot.Root().Children[0]
			mixed := NewDocument(NewElement("db", sharedPart, NewElement("extra")))

			ix := EnsureIndex(mixed)
			if ix == ownerIx {
				t.Fatal("EnsureIndex returned the owner's index for a different root")
			}
			// The shared subtree still belongs to its owner.
			if !ownerIx.Contains(sharedPart) {
				t.Fatal("owned node was restamped by re-indexing")
			}
			if _, ok := ix.OrdOf(sharedPart); ok {
				t.Fatal("new index claims membership of an owned node")
			}
			// Fresh nodes are covered.
			extra := mixed.Root().Children[1]
			if _, ok := ix.OrdOf(extra); !ok {
				t.Fatal("fresh sibling of an owned subtree was not indexed")
			}
			// And the owner's own lookups still work, for every node.
			if got := countOwned(ownerIx, ownerRoot); got != ownerIx.NumNodes {
				t.Fatalf("owner keeps %d of its %d nodes", got, ownerIx.NumNodes)
			}
			if IndexOf(ownerRoot) != ownerIx {
				t.Fatal("owner's root index changed")
			}
		})
	}
}

// countOwned counts the nodes under root that ix reports as members.
func countOwned(ix *Index, root *Node) int {
	n := 0
	stack := []*Node{root}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ix.Contains(x) {
			n++
		}
		stack = append(stack, x.Children...)
	}
	return n
}

func TestEnsureIndexOnSealedInteriorReturnsOwner(t *testing.T) {
	for name, build := range owners() {
		t.Run(name, func(t *testing.T) {
			root, ix := build()
			part := root.Root().Children[0]
			if got := EnsureIndex(part); got != ix {
				t.Fatalf("EnsureIndex(interior) = %p, want owner %p", got, ix)
			}
		})
	}
}

// TestSealedConcurrentEnsureWhileIndexingSharingTree is the race-detector
// teeth of the write-once stamp rule: readers resolve an indexed
// document's index lock-free and read its members' ordinals and symbols
// while another goroutine indexes trees sharing nodes with it. If
// indexing ever restamped a shared node (or idx were not atomic), this
// test would fail under -race, and membership checks would fail without
// it.
func TestSealedConcurrentEnsureWhileIndexingSharingTree(t *testing.T) {
	for name, build := range owners() {
		t.Run(name, func(t *testing.T) {
			root, ix := build()
			part := root.Root().Children[0]
			partSym := ix.SymOf(part)

			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for j := 0; j < 200; j++ {
						_, member := ix.OrdOf(part)
						if EnsureIndex(root) != ix || EnsureIndex(part) != ix || !member || ix.SymOf(part) != partSym {
							t.Error("owner index, membership or symbol changed under concurrent indexing")
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < 50; j++ {
					mixed := NewDocument(NewElement("db", NewElement("extra"), part))
					EnsureIndex(mixed)
				}
			}()
			close(start)
			wg.Wait()
		})
	}
}

func TestFreezeDeepChain(t *testing.T) {
	// A deep chain must not overflow the stack (iterative walk).
	n := NewElement("leaf")
	for i := 0; i < 100_000; i++ {
		n = NewElement("e", n)
	}
	doc := NewDocument(n)
	root, ix, stats := Freeze(doc, nil)
	if ix.NumNodes != doc.Size() || stats.Nodes != ix.NumNodes {
		t.Fatalf("NumNodes=%d size=%d", ix.NumNodes, doc.Size())
	}
	if !strings.HasPrefix(root.String(), "<e><e>") {
		t.Fatal("unexpected serialization")
	}
}
