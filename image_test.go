package xtq

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

// emitImage serializes n the way xtqd answers a query: sax.Emit into a
// sax.Writer that copies what img (nil: nothing) covers.
func emitImage(t *testing.T, n *tree.Node, img *tree.Image) string {
	t.Helper()
	var b bytes.Buffer
	sw := sax.NewWriter(&b)
	sw.UseImage(img)
	if err := sax.Emit(n, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// copiesFromImage reports whether img covers some node of the tree at n,
// i.e. whether emitting n through it copies at least one subtree.
func copiesFromImage(n *tree.Node, img *tree.Image) bool {
	stack := []*tree.Node{n}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if img.Subtree(x) != nil {
			return true
		}
		stack = append(stack, x.Children...)
	}
	return false
}

var allOps = []core.Op{core.Insert, core.Delete, core.Rename, core.Replace}

// TestImageEmitMatchesCopyUpdate: for U1-U10 under every update kind, the
// topdown result over an imaged snapshot serializes to the same bytes
// with the image, without it, and as the copy-then-update oracle's
// result — and the image is actually used.
func TestImageEmitMatchesCopyUpdate(t *testing.T) {
	ctx := context.Background()
	for _, factor := range []float64{0.001, 0.01} {
		doc, err := xmark.Generate(xmark.Config{Factor: factor, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(nil)
		if _, _, err := st.Put(ctx, "d", doc); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot("d")
		if err != nil {
			t.Fatal(err)
		}
		img, _ := snap.Index().Image()
		for i := 1; i <= 10; i++ {
			for _, op := range allOps {
				c, err := queries.TransformOp(i, op).Compile()
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.EvalContext(ctx, snap.Root(), core.MethodTopDown)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := c.EvalContext(ctx, snap.Root(), core.MethodCopyUpdate)
				if err != nil {
					t.Fatal(err)
				}
				want := emitImage(t, oracle, nil)
				if got := emitImage(t, res, nil); got != want {
					t.Fatalf("%g U%d %s: topdown differs from copyupdate", factor, i, op)
				}
				if got := emitImage(t, res, img); got != want {
					t.Fatalf("%g U%d %s: emission through the image differs", factor, i, op)
				}
				if !copiesFromImage(res, img) {
					t.Fatalf("%g U%d %s: the result shares nothing the image covers", factor, i, op)
				}
			}
		}
	}
}

// TestImageAcrossVersions builds the image at version 1 and commits 60
// edits of FuzzSoARoundTrip's mix, one of them a deletion that forces a
// compaction into a new chain. At every version, Snapshot.WriteXML and
// query results through the image equal the plain walk (and the query
// results the copy-then-update oracle), and every earlier version still
// serializes to the bytes it had.
func TestImageAcrossVersions(t *testing.T) {
	ctx := context.Background()
	var doc strings.Builder
	doc.WriteString("<db>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&doc, `<part id="%d"><pname>p%d &amp; co</pname><price>%d</price></part>`, i, i, i)
	}
	doc.WriteString("<big>" + strings.Repeat("<x>v</x>", 2500) + "</big></db>")
	const compactAt = 30

	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", FromString(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	img, _ := snap.Index().Image()
	reads := []*core.Compiled{}
	for _, q := range []string{
		`transform copy $a := doc("d") modify do rename $a//pname as label return $a`,
		`transform copy $a := doc("d") modify do insert <nw>n</nw> into $a//part[price > 20] return $a`,
	} {
		p, err := core.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, c)
	}
	bytesOf := func(s *Snapshot) string {
		var b strings.Builder
		if err := s.WriteXML(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	type version struct {
		snap *Snapshot
		xml  string
	}
	history := []version{{snap, snap.Root().String()}}
	rng := rand.New(rand.NewSource(1))
	labels := []string{"part", "pname", "price", "nw", "zz"}
	chains := 0
	for k := 1; k <= 60; k++ {
		lb := labels[rng.Intn(len(labels))]
		var q string
		switch {
		case k == compactAt:
			q = `delete $a//big`
		case rng.Intn(4) == 0:
			q = "delete $a//" + lb
		case rng.Intn(3) == 0:
			q = "rename $a//" + lb + " as zz"
		case rng.Intn(2) == 0:
			q = "insert <nw>n</nw> into $a//" + lb
		default:
			q = "rename $a//zz as " + lb
		}
		prev := snap
		snap, _, err = st.Apply(ctx, "d", `transform copy $a := doc("d") modify do `+q+` return $a`)
		if err != nil {
			t.Fatal(err)
		}
		if cur := snap.Index().LoadImage(); cur != prev.Index().LoadImage() {
			chains++
			if cur != nil || k != compactAt {
				t.Fatalf("commit %d moved to another image (compaction is forced at %d only)", k, compactAt)
			}
		} else if k < compactAt && cur != img {
			t.Fatalf("commit %d: the chain's image was replaced", k)
		}
		plain := snap.Root().String()
		if got := bytesOf(snap); got != plain {
			t.Fatalf("commit %d (%s): WriteXML through the image differs from the walk", k, q)
		}
		for _, c := range reads {
			res, err := c.EvalContext(ctx, snap.Root(), core.MethodTopDown)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := c.EvalContext(ctx, snap.Root(), core.MethodCopyUpdate)
			if err != nil {
				t.Fatal(err)
			}
			want := emitImage(t, oracle, nil)
			if got := emitImage(t, res, snap.Image()); got != want {
				t.Fatalf("commit %d (%s): query result through the image differs", k, q)
			}
		}
		for _, v := range history {
			if bytesOf(v.snap) != v.xml {
				t.Fatalf("commit %d changed version %d", k, v.snap.Version())
			}
		}
		history = append(history, version{snap, plain})
	}
	if chains != 1 {
		t.Fatalf("%d chain changes, want exactly the forced compaction", chains)
	}
}
