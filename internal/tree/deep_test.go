package tree

import (
	"runtime/debug"
	"testing"
)

// deepChain builds a pathological single-path document of the given
// element depth, iteratively.
func deepChain(depth int) *Node {
	leaf := NewElement("leaf", NewText("x"))
	cur := leaf
	for i := 0; i < depth-1; i++ {
		cur = NewElement("e", cur)
	}
	return NewDocument(cur)
}

// TestDeepDocumentOps pins the iterative implementations of Equal,
// DeepCopy, SharedNodes, indexing, Freeze and the image build: a document as deep as a generous
// WithMaxDepth admits must not overflow the stack. The goroutine stack
// ceiling is lowered for the duration of the test so a regression back to
// per-node recursion fails (fatally, as a stack overflow) instead of
// silently growing the stack to gigabytes.
func TestDeepDocumentOps(t *testing.T) {
	const depth = 200_000
	old := debug.SetMaxStack(4 << 20)
	defer debug.SetMaxStack(old)

	d := deepChain(depth)
	ix := EnsureIndex(d)
	if want := depth + 2; ix.NumNodes != want { // doc + element chain + one text leaf
		t.Fatalf("NumNodes = %d, want %d", ix.NumNodes, want)
	}

	c := d.DeepCopy()
	if IndexOf(c) != nil {
		t.Fatal("DeepCopy returned an indexed tree")
	}
	if !Equal(d, c) {
		t.Fatal("deep copy not Equal to original")
	}
	if got := SharedNodes(d, c); got != 0 {
		t.Fatalf("deep copy shares %d nodes with the original", got)
	}
	if got := SharedNodes(d, d); got != ix.NumNodes {
		t.Fatalf("self-sharing = %d, want %d", got, ix.NumNodes)
	}

	// The image of a frozen copy is built by an iterative walk, and every
	// emitter copies the subtrees it covers: a result whose new spine sits
	// over the old chain is emitted without descending it.
	froot, fix, _ := Freeze(d, nil)
	img := imageOf(fix)
	if img == nil || img.Len() != len(img.Subtree(froot)) {
		t.Fatal("image of the deep document does not cover its root")
	}
	top := froot.Root()
	spine := NewDocument(NewElement("top", top.Children...))
	body := string(img.Subtree(top))
	if want := "<top>" + body[len("<e>"):len(body)-len("</e>")] + "</top>"; spine.String() != want {
		t.Fatal("emission through the deep image differs from the document")
	}

	// Equality must detect a difference buried at the bottom of the chain.
	deepest := c.Root()
	for deepest.Children[0].Kind == Element {
		deepest = deepest.Children[0]
	}
	deepest.Data = "mutated"
	if Equal(d, c) {
		t.Fatal("Equal missed a mutation at maximum depth")
	}
}
