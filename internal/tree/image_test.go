package tree

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// emitWith serializes n through an Emitter that uses img (nil: none).
func emitWith(t *testing.T, n *Node, img *Image) string {
	t.Helper()
	var b strings.Builder
	e := NewEmitter(&b)
	e.UseImage(img)
	e.Node(n)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestImageCoversEveryInteriorNode: the image is the version's
// serialization, and the range of every node with children is that
// node's own serialization; leaves are not covered.
func TestImageCoversEveryInteriorNode(t *testing.T) {
	doc := Generate(rand.New(rand.NewSource(3)), DefaultGenOptions())
	root, ix, _ := Freeze(doc, nil)
	img, built := ix.Image()
	if !built || img == nil {
		t.Fatal("first Image call did not build")
	}
	if again, built := ix.Image(); again != img || built {
		t.Fatal("second Image call did not return the published image")
	}
	if ix.LoadImage() != img {
		t.Fatal("LoadImage does not see the published image")
	}
	if want := root.String(); string(img.data) != want || img.Len() != len(want) {
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
		if string(b) != n.String() {
			t.Fatalf("range of <%s> = %q, want %q", n.Label, b, n.String())
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
	img, _ := versions[2].Image()
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
		if got, want := emitWith(t, v.Root, img), v.Root.String(); got != want {
			t.Fatalf("version %d: image emission differs from the walk", i)
		}
	}
}

// TestConcurrentImageBuild: goroutines racing to build the first image
// of one chain all get the same published image, exactly one of them
// reports the build, and every emission through it is identical.
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
		wg    sync.WaitGroup
		imgs  [workers]*Image
		built [workers]bool
		outs  [workers]string
	)
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			imgs[i], built[i] = ix.Image()
			var b bytes.Buffer
			e := NewEmitter(&b)
			e.UseImage(imgs[i])
			e.Node(root)
			e.Flush()
			outs[i] = b.String()
		}(i)
	}
	close(start)
	wg.Wait()
	builds := 0
	for i := 0; i < workers; i++ {
		if built[i] {
			builds++
		}
		if imgs[i] != imgs[0] || imgs[i] != ix.LoadImage() {
			t.Fatalf("worker %d got an image other than the published one", i)
		}
		if outs[i] != want {
			t.Fatalf("worker %d emitted different bytes", i)
		}
	}
	if builds != 1 {
		t.Fatalf("%d workers report publishing the image, want exactly 1", builds)
	}
}

// TestImageOnlyOnChainRoots: a plain evaluation index heads no chain and
// gets no image.
func TestImageOnlyOnChainRoots(t *testing.T) {
	ix := EnsureIndex(buildTestDoc())
	if img, built := ix.Image(); img != nil || built || ix.LoadImage() != nil {
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
