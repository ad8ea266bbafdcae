package tree

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// rebuild returns a tree that shares every subtree of n except the
// spine down to target, which is re-created with fresh (unstamped)
// nodes — exactly the shape the topDown evaluator's output has for a
// single-site update. f maps the target to its replacement; returning
// nil deletes it.
func rebuild(n, target *Node, f func(*Node) *Node) (*Node, bool) {
	if n == target {
		return f(n), true
	}
	for i, c := range n.Children {
		r, hit := rebuild(c, target, f)
		if !hit {
			continue
		}
		cp := shallowCopy(n)
		cp.Children = make([]*Node, len(n.Children))
		copy(cp.Children, n.Children)
		if r == nil {
			cp.Children = append(cp.Children[:i], cp.Children[i+1:]...)
		} else {
			cp.Children[i] = r
		}
		return cp, true
	}
	return n, false
}

// rename returns the single-site rename output over root.
func renameOut(t *testing.T, root, target *Node, label string) *Node {
	t.Helper()
	out, hit := rebuild(root, target, func(n *Node) *Node {
		cp := shallowCopy(n)
		cp.Label = label
		cp.Sym = NoSym
		cp.Children = n.Children
		return cp
	})
	if !hit {
		t.Fatal("rename target not under root")
	}
	return out
}

// serialize writes the version ix describes, from its own root.
func serialize(t *testing.T, ix *Index) string {
	t.Helper()
	var b strings.Builder
	if err := ix.Root.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// frozenXML is the oracle a path copy is checked against: the bytes of
// a from-scratch Freeze of the same evaluation output.
func frozenXML(t *testing.T, out *Node) string {
	t.Helper()
	_, ix, _ := Freeze(out, nil)
	return serialize(t, ix)
}

// checkVersion asserts the bookkeeping invariants of one version: every
// reachable node is a member, Live is the reachable count, and the width
// covers it.
func checkVersion(t *testing.T, tag string, ix *Index) {
	t.Helper()
	size := 0
	stack := []*Node{ix.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		size++
		if ord, ok := ix.OrdOf(n); !ok || int(ord) >= ix.NumNodes {
			t.Fatalf("%s: reachable node <%s> has ordinal (%d,%v) outside width %d", tag, n.Label, ord, ok, ix.NumNodes)
		}
		stack = append(stack, n.Children...)
	}
	if ix.Live != size {
		t.Fatalf("%s: Live %d != reachable %d", tag, ix.Live, size)
	}
	if ix.NumNodes < ix.Live {
		t.Fatalf("%s: width %d below live %d", tag, ix.NumNodes, ix.Live)
	}
}

func TestPathCopySharesUntouchedSubtrees(t *testing.T) {
	root, prev, _ := Freeze(buildTestDoc(), nil)
	prevXML := root.String()

	// Rename the second <part> — the first part's subtree must survive
	// by reference, not by copy.
	target := root.Root().Children[1]
	out := renameOut(t, root, target, "spare")

	newRoot, ix, stats := PathCopy(out, prev)
	want := strings.Replace(prevXML, "<part><pname>gadget</pname></part>",
		"<spare><pname>gadget</pname></spare>", 1)
	if newRoot.String() != want {
		t.Fatalf("unexpected result: %s, want %s", newRoot, want)
	}
	// Previous snapshot untouched, bytes and structure.
	if root.String() != prevXML || serialize(t, prev) != prevXML {
		t.Fatal("path copy disturbed the previous snapshot")
	}
	// The untouched first part is the same pointer in both versions.
	if newRoot.Root().Children[0] != root.Root().Children[0] {
		t.Fatal("untouched subtree was copied instead of aliased")
	}
	if shared := SharedNodes(root, newRoot); shared == 0 {
		t.Fatal("no structural sharing between versions")
	}
	// Copied: document, db, renamed part (+ its aliased children stay).
	if stats.Nodes != 3 {
		t.Fatalf("CopyStats.Nodes = %d, want 3 (spine only)", stats.Nodes)
	}
	if stats.SharedWithBase == 0 {
		t.Fatal("no shared-with-base accounting")
	}
	// Chain bookkeeping: width grew by the spine, live count unchanged.
	if ix.Live != prev.Live {
		t.Fatalf("Live = %d, want %d", ix.Live, prev.Live)
	}
	if ix.NumNodes != prev.NumNodes+3 {
		t.Fatalf("NumNodes = %d, want %d", ix.NumNodes, prev.NumNodes+3)
	}
	if serialize(t, ix) != frozenXML(t, out) {
		t.Fatal("path copy diverges from a Freeze of the same output")
	}
	checkVersion(t, "rename", ix)
}

func TestPathCopyChainMembership(t *testing.T) {
	root, prev, _ := Freeze(buildTestDoc(), nil)
	target := root.Root().Children[0]
	out := renameOut(t, root, target, "renamed")
	newRoot, ix, _ := PathCopy(out, prev)

	// Aliased nodes are members of both versions with the same ordinal.
	kept := newRoot.Root().Children[1]
	o1, ok1 := prev.OrdOf(kept)
	o2, ok2 := ix.OrdOf(kept)
	if !ok1 || !ok2 || o1 != o2 {
		t.Fatalf("aliased node membership: prev (%d,%v) new (%d,%v)", o1, ok1, o2, ok2)
	}
	// New nodes are members of the new version only.
	if _, ok := prev.OrdOf(newRoot); ok {
		t.Fatal("previous version claims the new root")
	}
	if _, ok := ix.OrdOf(newRoot); !ok {
		t.Fatal("new version does not own its root")
	}
	// Labels unchanged in the chain keep their symbol ids; the rename
	// interned a new label without touching the previous table.
	if prev.Syms.Lookup("renamed") != NoSym {
		t.Fatal("path copy interned into the frozen previous table")
	}
	if ix.Syms.Lookup("renamed") == NoSym {
		t.Fatal("new label not interned")
	}
	if got, want := ix.Syms.Lookup("pname"), prev.Syms.Lookup("pname"); got != want {
		t.Fatalf("stable symbol drifted: %d != %d", got, want)
	}
	// SymOf on an aliased node against the new index trusts the stamp.
	pn := kept.Children[0]
	if ix.SymOf(pn) != ix.Syms.Lookup("pname") {
		t.Fatal("SymOf wrong for aliased chain member")
	}

	// A commit with no new names reuses the previous table by pointer.
	out2 := renameOut(t, newRoot, newRoot.Root().Children[1], "renamed")
	_, ix2, _ := PathCopy(out2, ix)
	if ix2.Syms != ix.Syms {
		t.Fatal("table cloned although no new symbols were interned")
	}
}

func TestPathCopyDeleteKeepsSiblingAliased(t *testing.T) {
	root, prev, _ := Freeze(buildTestDoc(), nil)
	// Delete the first <part>: the second part stays aliased under a new
	// parent (db), where it becomes the first child.
	target := root.Root().Children[0]
	out, hit := rebuild(root, target, func(*Node) *Node { return nil })
	if !hit {
		t.Fatal("delete target not found")
	}
	newRoot, ix, stats := PathCopy(out, prev)

	if kept := newRoot.Root().Children[0]; kept != root.Root().Children[1] {
		t.Fatal("surviving sibling was copied instead of aliased")
	}
	// The previous version is untouched: its db still has the deleted
	// part as first child.
	if serialize(t, prev) != root.String() || prev.Root.Root().Children[0] != target {
		t.Fatal("previous version changed")
	}
	if serialize(t, ix) != frozenXML(t, out) {
		t.Fatal("path copy diverges from a Freeze of the same output after delete")
	}
	// Live shrank by the deleted subtree; what was shared is everything
	// but the two-node spine and the deleted part.
	if want := root.Size() - target.Size(); ix.Live != want {
		t.Fatalf("Live = %d, want %d", ix.Live, want)
	}
	if want := root.Size() - target.Size() - 2; stats.SharedWithBase != want {
		t.Fatalf("SharedWithBase = %d, want %d", stats.SharedWithBase, want)
	}
	checkVersion(t, "delete", ix)
}

func TestPathCopyNoopReturnsPrev(t *testing.T) {
	root, prev, _ := Freeze(buildTestDoc(), nil)
	r, ix, stats := PathCopy(root, prev)
	if r != root || ix != prev {
		t.Fatal("no-op path copy built a new version")
	}
	if stats.Nodes != 0 || stats.Bytes != 0 || stats.SharedWithBase != prev.Live {
		t.Fatalf("no-op stats: %+v", stats)
	}
}

func TestPathCopyCompaction(t *testing.T) {
	// Grow a document past compactMinWidth, then repeatedly replace its
	// bulk subtree: the ordinal space fills with dead nodes until the
	// width exceeds twice the live count and PathCopy renumbers into a
	// fresh chain.
	bulk := NewElement("bulk")
	for i := 0; i < compactMinWidth; i++ {
		bulk.Append(NewElement("x"))
	}
	doc := NewDocument(NewElement("db", bulk, NewElement("tag")))
	root, ix, _ := Freeze(doc, nil)
	chain0 := ix.chain

	compacted := false
	for i := 0; i < 4 && !compacted; i++ {
		// Replace the bulk subtree wholesale (fresh nodes).
		nb := NewElement("bulk")
		for j := 0; j < compactMinWidth; j++ {
			nb.Append(NewElement("y"))
		}
		out, hit := rebuild(root, root.Root().Children[0], func(*Node) *Node { return nb })
		if !hit {
			t.Fatal("bulk not found")
		}
		var stats CopyStats
		root, ix, stats = PathCopy(out, ix)
		if ix.chain != chain0 {
			compacted = true
			if ix.NumNodes != ix.Live {
				t.Fatalf("compacted chain not dense: width %d live %d", ix.NumNodes, ix.Live)
			}
			if stats.Nodes != ix.Live {
				t.Fatalf("compaction copied %d nodes of %d", stats.Nodes, ix.Live)
			}
		}
		if serialize(t, ix) != frozenXML(t, out) {
			t.Fatalf("round %d: path copy diverges from Freeze", i)
		}
		checkVersion(t, "replace bulk", ix)
	}
	if !compacted {
		t.Fatal("compaction never triggered")
	}
}

// randomEdit returns the output of one random single-site rename,
// delete, insert or replace over root — the shape an evaluator hands
// PathCopy — or false when the draw picked nothing applicable.
func randomEdit(t *testing.T, rng *rand.Rand, root *Node) (*Node, bool) {
	var all []*Node
	stack := []*Node{root}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		all = append(all, x)
		stack = append(stack, x.Children...)
	}
	target := all[rng.Intn(len(all))]
	if target == root {
		return nil, false
	}
	switch rng.Intn(6) { // inserts twice as likely as deletes, so documents do not wither
	case 0, 1: // rename (elements only)
		if target.Kind != Element {
			return nil, false
		}
		return renameOut(t, root, target, "r"+string(rune('a'+rng.Intn(26)))), true
	case 2: // delete (never the document element: nothing could follow)
		if target == root.Root() {
			return nil, false
		}
		return rebuild(root, target, func(*Node) *Node { return nil })
	case 3, 4: // insert a small fresh subtree as last child
		if target.Kind == Text {
			return nil, false
		}
		return rebuild(root, target, func(n *Node) *Node {
			cp := shallowCopy(n)
			cp.Children = make([]*Node, len(n.Children), len(n.Children)+1)
			copy(cp.Children, n.Children)
			cp.Children = append(cp.Children, NewElement("ins", NewText("v")))
			return cp
		})
	default: // replace with a fresh subtree carrying an attribute
		return rebuild(root, target, func(*Node) *Node {
			el := NewElement("repl", NewText("xyz"))
			el.Attrs = []Attr{{Name: "k", Value: "v"}}
			return el
		})
	}
}

// TestPathCopyRandomEdits drives a long chain of random single-site
// edits, checking after every commit that the new version is byte-equal
// to a Freeze of the same output, that every earlier version still held
// is byte-stable, and that membership and live counts agree with a full
// recount.
func TestPathCopyRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := Generate(rng, DefaultGenOptions())
	root, ix, _ := Freeze(doc, nil)

	type version struct {
		ix  *Index
		xml string
	}
	history := []version{{ix, root.String()}}
	for i := 0; i < 400 && len(history) <= 60; i++ {
		out, hit := randomEdit(t, rng, root)
		if !hit {
			continue
		}
		prevIx := ix
		root, ix, _ = PathCopy(out, ix)
		if got := serialize(t, ix); got != frozenXML(t, out) {
			t.Fatalf("commit %d: path copy %q != Freeze of the same output", i, got)
		}
		for _, v := range history {
			if serialize(t, v.ix) != v.xml {
				t.Fatalf("commit %d: an earlier version changed", i)
			}
		}
		if _, ok := prevIx.OrdOf(root); ok {
			t.Fatalf("commit %d: previous version claims the new root", i)
		}
		checkVersion(t, "random edit", ix)
		history = append(history, version{ix, root.String()})
	}
	if len(history) <= 60 {
		t.Fatalf("only %d commits exercised", len(history)-1)
	}
}

// TestPathCopyCompactsPastTwiceLive drives one chain with commits that
// each replace a mid-sized subtree until dead ordinals outnumber live
// ones, and past that point: the chain must renumber through Freeze
// exactly when width > compactMinWidth && width > 2*live, and Live and
// NumNodes must equal a recount at every step on both sides of the
// compaction.
func TestPathCopyCompactsPastTwiceLive(t *testing.T) {
	const sections, perSection = 8, 400
	db := NewElement("db")
	for s := 0; s < sections; s++ {
		sec := NewElement("sec")
		for i := 0; i < perSection; i++ {
			sec.Append(NewElement("x"))
		}
		db.Append(sec)
	}
	root, ix, _ := Freeze(NewDocument(db), nil)
	checkVersion(t, "freeze", ix)

	compactions := 0
	for i := 0; i < 40; i++ {
		nb := NewElement("sec")
		for j := 0; j < perSection; j++ {
			nb.Append(NewElement("y"))
		}
		out, hit := rebuild(root, root.Root().Children[i%sections], func(*Node) *Node { return nb })
		if !hit {
			t.Fatal("section not found")
		}
		prev := ix
		root, ix, _ = PathCopy(out, prev)
		checkVersion(t, "replace section", ix)
		if serialize(t, ix) != frozenXML(t, out) {
			t.Fatalf("commit %d: path copy diverges from Freeze", i)
		}
		width := prev.NumNodes + perSection + 3 // new section + document/db spine
		if want := width > compactMinWidth && width > 2*ix.Live; (ix.chain != prev.chain) != want {
			t.Fatalf("commit %d: compacted=%v at width %d live %d", i, ix.chain != prev.chain, width, ix.Live)
		}
		if ix.chain != prev.chain {
			compactions++
			if ix.NumNodes != ix.Live {
				t.Fatalf("commit %d: compacted chain not dense: width %d live %d", i, ix.NumNodes, ix.Live)
			}
		} else if ix.NumNodes != width {
			t.Fatalf("commit %d: NumNodes = %d, want %d", i, ix.NumNodes, width)
		}
	}
	if compactions < 2 {
		t.Fatalf("chain compacted %d times over 40 commits, want at least 2", compactions)
	}
}

// TestFreezeStartsDenseChain pins what a Freeze hands PathCopy: a
// dense, fully owned chain head whose copy cost counts exactly the node
// structs and their attribute and child slices.
func TestFreezeStartsDenseChain(t *testing.T) {
	src := buildTestDoc()
	src.Root().Children[0].Attrs = []Attr{{Name: "id", Value: "1"}}
	root, ix, stats := Freeze(src, nil)
	if ix.chain == nil {
		t.Fatal("freeze did not start a chain")
	}
	if ix.NumNodes != root.Size() || ix.Live != ix.NumNodes || stats.Nodes != ix.NumNodes {
		t.Fatalf("width %d live %d copied %d, want all %d", ix.NumNodes, ix.Live, stats.Nodes, root.Size())
	}
	var bytes int64
	stack := []*Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		bytes += nodeBytes + int64(len(n.Attrs))*attrBytes + int64(len(n.Children))*ptrBytes
		stack = append(stack, n.Children...)
	}
	if stats.Bytes != bytes {
		t.Fatalf("CopyStats.Bytes = %d, want %d (nodes + attribute + child slices)", stats.Bytes, bytes)
	}
	checkVersion(t, "freeze", ix)
	if serialize(t, ix) != src.String() {
		t.Fatal("frozen copy serializes differently from its source")
	}
}

// TestAdoptStartsChain: adopting a fully owned tree makes it, in place,
// a chain head that PathCopy extends by sharing. Anything else — a tree
// that reaches into another document's nodes, a published snapshot root,
// an interior node — is copied by Freeze into a fresh chain instead.
func TestAdoptStartsChain(t *testing.T) {
	doc := buildTestDoc()
	root, ix, cs := Adopt(doc)
	if root != doc || cs.Nodes != 0 || IndexOf(doc) != ix {
		t.Fatalf("owned tree was not adopted in place: copied %d", cs.Nodes)
	}
	if ix.chain == nil {
		t.Fatal("Adopt did not start a chain for a fully owned tree")
	}
	if ix.Live != ix.NumNodes {
		t.Fatalf("Live = %d, want %d", ix.Live, ix.NumNodes)
	}
	checkVersion(t, "adopt", ix)
	out := renameOut(t, doc, doc.Root().Children[0], "renamed")
	newRoot, nix, stats := PathCopy(out, ix)
	if nix.chain != ix.chain || stats.Nodes != 3 || newRoot.Root().Children[1] != doc.Root().Children[1] {
		t.Fatalf("path copy over an adopted parse did not share: %+v", stats)
	}

	mixed := NewDocument(NewElement("wrap", doc.Root().Children[1], NewElement("own")))
	mroot, mix, mcs := Adopt(mixed)
	if mroot == mixed || mcs.Nodes != mixed.Size() || mix.chain == nil || mix.chain == ix.chain {
		t.Fatalf("tree with a foreign subtree was not frozen into a fresh chain: %+v", mcs)
	}
	if !ix.Contains(doc.Root().Children[1]) {
		t.Fatal("adopting a sharing tree restamped the other document's nodes")
	}
	if mroot.String() != mixed.String() {
		t.Fatal("Freeze fallback changed the document")
	}
	checkVersion(t, "adopt-mixed", mix)

	for name, n := range map[string]*Node{"snapshot root": newRoot, "interior": doc.Root()} {
		r, rix, rcs := Adopt(n)
		if r == n || rcs.Nodes != n.Size() || rix.chain == nil || rix.chain == ix.chain {
			t.Fatalf("%s was adopted in place instead of frozen: %+v", name, rcs)
		}
	}
}

// TestPathCopySurvivorDoesNotPinItsVersion: a node created by one commit
// and aliased by the next keeps only itself alive — not the root and
// spine of the version it was born in (which would in turn keep the
// version before, and so on down the history).
func TestPathCopySurvivorDoesNotPinItsVersion(t *testing.T) {
	root0, ix0, _ := Freeze(buildTestDoc(), nil)
	// v1 renames the first part: new document, db and part nodes.
	root1, ix1, _ := PathCopy(renameOut(t, root0, root0.Root().Children[0], "spare"), ix0)
	survivor := root1.Root().Children[0]
	// The finalizer watches v1's db node, not its root: the root and its
	// Index point at each other, and cycles through a finalized object
	// are never collected.
	collected := make(chan struct{})
	runtime.SetFinalizer(root1.Root(), func(*Node) { close(collected) })
	// v2 renames the second part: v1's renamed part survives by alias,
	// v1's document and db nodes are replaced.
	root2, ix2, _ := PathCopy(renameOut(t, root1, root1.Root().Children[1], "other"), ix1)
	if root2.Root().Children[0] != survivor || !ix2.Contains(survivor) {
		t.Fatal("v1's node did not survive into v2")
	}
	root1, ix1 = nil, nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			checkVersion(t, "v2", ix2)
			runtime.KeepAlive(root2)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("v1's spine is still reachable from v2 through the node v2 aliases")
}
