package tree

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// walked serializes n without any image: an unstamped deep copy, which
// no chain covers, is the plain walk every image must reproduce.
func walked(n *Node) string { return n.DeepCopy().String() }

// imageOf reads ix's chain twice, which builds its image, and returns it.
func imageOf(ix *Index) *Image {
	ix.Read(NeedImage)
	return ix.Read(NeedImage)
}

// TestImageCoversEveryInteriorNode: the image is the version's
// serialization, and the range of every node with children is that
// node's own serialization; leaves are not covered.
func TestImageCoversEveryInteriorNode(t *testing.T) {
	doc := Generate(rand.New(rand.NewSource(3)), DefaultGenOptions())
	root, ix, _ := Freeze(doc, nil)
	builds := mBuilds[DerivedImage].Value()
	if ix.Read(NeedImage) != nil {
		t.Fatal("the chain's first read built its image")
	}
	img := ix.Read(NeedImage)
	if img == nil || mBuilds[DerivedImage].Value() != builds+1 {
		t.Fatal("the chain's second read did not build")
	}
	if again := ix.Read(NeedImage); again != img || mBuilds[DerivedImage].Value() != builds+1 {
		t.Fatal("the third read did not return the published image")
	}
	if ix.LoadImage() != img {
		t.Fatal("LoadImage does not see the published image")
	}
	if want := walked(root); string(img.data) != want || img.Len() != len(want) {
		t.Fatalf("image bytes differ from the serialization (%d vs %d bytes)", img.Len(), len(want))
	}
	if cap(img.data) != len(img.data) {
		t.Fatalf("image buffer not exactly sized: len %d cap %d", len(img.data), cap(img.data))
	}
	covered := 0
	stack := []*Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stack = append(stack, n.Children...)
		b := img.Subtree(n)
		if len(n.Children) == 0 {
			if b != nil {
				t.Fatalf("leaf %s is covered", n)
			}
			continue
		}
		if want := walked(n); string(b) != want {
			t.Fatalf("range of <%s> = %q, want %q", n.Label, b, want)
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("no interior node covered")
	}
	// A foreign node, even one structurally equal to a covered node, is
	// walked.
	if img.Subtree(doc) != nil || img.Subtree(root.DeepCopy()) != nil {
		t.Fatal("image covers a node of another document")
	}
	var none *Image
	if none.Subtree(root) != nil {
		t.Fatal("nil image covers a node")
	}
	// Every emitter copies from the image it finds: marked image bytes
	// show up in the output.
	img.data = []byte(strings.ToUpper(string(img.data)))
	if root.String() != string(img.data) {
		t.Fatal("the emitter does not copy from the chain's image")
	}
}

// TestImageServesLaterVersions: an image built on one version serves the
// aliased subtrees of every later version of the chain, walks their new
// nodes, and leaves nodes of older versions the imaged one dropped to the
// walk. Output is byte-identical to the plain walk throughout.
func TestImageServesLaterVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	root, ix, _ := Freeze(Generate(rng, DefaultGenOptions()), nil)
	versions := []*Index{ix}
	for len(versions) < 5 {
		if out, hit := randomEdit(t, rng, root); hit {
			root, ix, _ = PathCopy(out, ix)
			versions = append(versions, ix)
		}
	}
	img := imageOf(versions[2])
	for len(versions) < 40 {
		if out, hit := randomEdit(t, rng, root); hit {
			root, ix, _ = PathCopy(out, ix)
			versions = append(versions, ix)
		}
	}
	for i, v := range versions {
		if v.chain == versions[2].chain && v.LoadImage() != img {
			t.Fatalf("version %d of the chain does not see its image", i)
		}
		if got, want := v.Root.String(), walked(v.Root); got != want {
			t.Fatalf("version %d: image emission differs from the walk", i)
		}
	}
}

// TestBelowMasks: along a chain imaged at its third version, Below
// returns, for every node reachable from that version, the labels
// strictly below it (bit SymID % 64; 0 for a leaf), and every bit for
// anything else: nodes created after the masks, nodes of earlier
// versions the third replaced (holes in the masks), nodes outside the
// chain, and every node before the chain has masks. A read that needs
// only masks builds the same masks on a chain's second read, without an
// image.
func TestBelowMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	root, ix, _ := Freeze(Generate(rng, DefaultGenOptions()), nil)
	versions := []*Index{ix}
	for len(versions) < 12 {
		if out, hit := randomEdit(t, rng, root); hit {
			root, ix, _ = PathCopy(out, ix)
			versions = append(versions, ix)
		}
		if len(versions) == 3 && versions[0].Below(versions[0].Root) != ^uint64(0) {
			t.Fatal("a chain without masks masks its root")
		}
		if len(versions) == 3 && versions[2].LoadImage() == nil {
			imageOf(versions[2])
		}
	}
	covered := map[*Node]bool{}
	stack := []*Node{versions[2].Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stack = append(stack, n.Children...)
		covered[n] = true
	}
	var below func(n *Node) uint64
	below = func(n *Node) uint64 {
		var m uint64
		for _, c := range n.Children {
			if c.Kind == Element {
				m |= 1<<(uint(c.Sym)%64) | below(c)
			}
		}
		return m
	}
	masked, holes := 0, 0
	for i, v := range versions {
		stack := []*Node{v.Root}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack = append(stack, n.Children...)
			got := v.Below(n)
			if !covered[n] {
				if got != ^uint64(0) {
					t.Fatalf("version %d: an uncovered node is masked %x", i, got)
				}
				if i < 2 {
					holes++
				}
				continue
			}
			if want := below(n); got != want {
				t.Fatalf("version %d: <%s> masked %x, want %x", i, n.Label, got, want)
			}
			masked++
		}
	}
	if masked == 0 || holes == 0 {
		t.Fatalf("%d nodes masked, %d holes read: the check is vacuous", masked, holes)
	}
	if versions[5].Below(versions[5].Root.DeepCopy()) != ^uint64(0) {
		t.Fatal("an unstamped node is masked")
	}
	other, oix, _ := Freeze(root.DeepCopy(), nil)
	masks := mBuilds[DerivedMasks].Value()
	oix.Read(NeedMasks)
	if mBuilds[DerivedMasks].Value() != masks || oix.Below(other) != ^uint64(0) {
		t.Fatal("the chain's first read built its masks")
	}
	if oix.Read(NeedMasks); mBuilds[DerivedMasks].Value() != masks+1 || oix.LoadImage() != nil {
		t.Fatal("a read that needs masks must build them, and no image, on the chain's second read")
	}
	if oix.Read(NeedMasks); mBuilds[DerivedMasks].Value() != masks+1 {
		t.Fatal("a chain's masks were built twice")
	}
	if versions[5].Below(other.Children[0]) != ^uint64(0) || oix.Below(versions[5].Root.Children[0]) != ^uint64(0) {
		t.Fatal("a node of another chain is masked")
	}
	if got, want := oix.Below(other.Children[0]), below(other.Children[0]); got != want {
		t.Fatalf("masks read: root element masked %x, want %x", got, want)
	}
}

// TestConcurrentImageBuild: goroutines racing to build the first image
// of one chain all get the same published image, exactly one build is
// counted, and every emission through it is identical.
func TestConcurrentImageBuild(t *testing.T) {
	// Large enough that the builds overlap.
	db := NewElement("db")
	for i := 0; i < 20000; i++ {
		db.Append(NewElement("x", NewText("v&w")))
	}
	root, ix, _ := Freeze(NewDocument(db), nil)
	want := root.String()
	const workers = 8
	var (
		wg   sync.WaitGroup
		imgs [workers]*Image
		outs [workers]string
	)
	builds := mBuilds[DerivedImage].Value()
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			imgs[i] = imageOf(ix)
			outs[i] = root.String()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < workers; i++ {
		if imgs[i] != imgs[0] || imgs[i] != ix.LoadImage() {
			t.Fatalf("worker %d got an image other than the published one", i)
		}
		if outs[i] != want {
			t.Fatalf("worker %d emitted different bytes", i)
		}
	}
	if n := mBuilds[DerivedImage].Value() - builds; n != 1 {
		t.Fatalf("%d image builds counted, want exactly 1", n)
	}
}

// TestConcurrentViewEmitDuringImageBuild: goroutines emit a view-shaped
// result — a fresh spine over subtrees of two chains, one imaged and one
// not — while another goroutine builds the second chain's image. Nodes
// switch from walked to copied as the image is published, and every
// output still equals the plain walk.
func TestConcurrentViewEmitDuringImageBuild(t *testing.T) {
	chain := func(label string) (*Node, *Index) {
		db := NewElement("db")
		for i := 0; i < 4000; i++ {
			db.Append(NewElement(label, NewText("v&w"), NewElement("y", NewText("<"))))
		}
		root, ix, _ := Freeze(NewDocument(db), nil)
		return root.Root(), ix
	}
	a, aix := chain("a")
	b, bix := chain("b")
	if imageOf(bix) == nil {
		t.Fatal("the second chain's image was not built")
	}
	view := NewElement("view")
	for i, x := range a.Children {
		view.Append(x, NewElement("member", x.Children...), b.Children[i])
	}
	mixed := NewDocument(view)
	want := walked(mixed)

	const workers, rounds = 4, 4
	var (
		wg  sync.WaitGroup
		bad [workers]int
	)
	start := make(chan struct{})
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		<-start
		imageOf(aix)
	}()
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			for k := 0; k < rounds; k++ {
				if mixed.String() != want {
					bad[i]++
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, n := range bad {
		if n > 0 {
			t.Fatalf("worker %d: %d of %d emissions differ from the walk", i, n, rounds)
		}
	}
	if aix.LoadImage().Subtree(a.Children[0]) == nil || bix.LoadImage().Subtree(b.Children[0]) == nil {
		t.Fatal("the result's subtrees are not covered by their chains' images")
	}
	if mixed.String() != want {
		t.Fatal("emission through both images differs from the walk")
	}
}

// TestImageOnlyOnChainRoots: a plain evaluation index heads no chain and
// gets no image.
func TestImageOnlyOnChainRoots(t *testing.T) {
	ix := EnsureIndex(buildTestDoc())
	if imageOf(ix) != nil || ix.LoadImage() != nil {
		t.Fatal("a plain index built an image")
	}
}

// errWriter fails every write and counts them.
type errWriter struct{ writes int }

func (w *errWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("closed")
}

// TestEmitterBytesStickyError: once a write has failed, Bytes drops its
// input instead of writing it through.
func TestEmitterBytesStickyError(t *testing.T) {
	var w errWriter
	e := NewEmitter(&w)
	big := make([]byte, 2*emitBufSize)
	e.Bytes(big)
	e.Bytes(big)
	e.Bytes(big[:10])
	if err := e.Flush(); err == nil || w.writes != 1 {
		t.Fatalf("err %v after %d writes, want the first write's error and no further write", err, w.writes)
	}
}
