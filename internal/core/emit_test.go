package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xpath"
)

// emitOracle checks, for q over doc, that EmitTopDown writes the bytes
// sax.Emit writes for EvalTopDown's result, and that those are the
// bytes of the copy-then-update result walked.
func emitOracle(t *testing.T, name string, q *Query, doc *tree.Node) {
	t.Helper()
	c, err := q.Compile()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ctx := context.Background()
	res, err := EvalTopDown(ctx, c, doc, DirectChecker{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	sw := sax.NewWriter(&want)
	if err := sax.Emit(res, sw); err != nil {
		t.Fatal(err)
	}
	sw.Flush()
	oracle, err := EvalCopyUpdate(ctx, c, doc)
	if err != nil {
		t.Fatal(err)
	}
	if w := oracle.DeepCopy().String(); w != want.String() {
		t.Fatalf("%s: topdown %q, copyupdate %q", name, want.String(), w)
	}
	var got bytes.Buffer
	if _, err := EmitTopDown(ctx, c, doc, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: EmitTopDown wrote\n%q\nwant\n%q", name, got.String(), want.String())
	}
}

// imageOf reads ix's chain twice, which builds its image.
func imageOf(ix *tree.Index) {
	ix.Read(tree.NeedImage)
	ix.Read(tree.NeedImage)
}

// updates returns p's transform under every update kind.
func updates(p *xpath.Path) []*Query {
	elem := tree.NewElement("new", tree.NewText("x&y"))
	return []*Query{
		{Var: "a", Doc: "d", Update: Update{Op: Insert, Path: p, Elem: elem}},
		{Var: "a", Doc: "d", Update: Update{Op: Delete, Path: p}},
		{Var: "a", Doc: "d", Update: Update{Op: Rename, Path: p, Label: "renamed"}},
		{Var: "a", Doc: "d", Update: Update{Op: Replace, Path: p, Elem: elem}},
	}
}

// TestEmitTopDownMatchesTreeRandom: random documents and random paths
// under every update kind, over the plain tree and over a frozen chain:
// one whose image (and label masks) is built, or, on odd seeds, a fresh
// one per query, which the query reads first and so walks unimaged.
func TestEmitTopDownMatchesTreeRandom(t *testing.T) {
	genOpts := tree.DefaultGenOptions()
	cfg := xpath.DefaultGenConfig()
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := tree.Generate(rng, genOpts)
		p := xpath.RandomPath(rng, cfg)
		if _, err := (&Query{Var: "a", Doc: "d", Update: Update{Op: Delete, Path: p}}).Compile(); err != nil {
			continue
		}
		root, ix, _ := tree.Freeze(d, nil)
		if seed%2 == 0 {
			imageOf(ix)
		}
		for _, q := range updates(p) {
			if seed%2 == 1 {
				root, _, _ = tree.Freeze(d, nil)
			}
			name := fmt.Sprintf("seed %d %s %s", seed, q.Update.Op, p)
			emitOracle(t, name, q, d)
			emitOracle(t, name+" (chain)", q, root)
		}
	}
}

// TestEmitTopDownEdgeCases: the shapes the emit walk must serialize as
// the tree would, on a plain document and on an imaged chain.
func TestEmitTopDownEdgeCases(t *testing.T) {
	cases := []struct{ doc, path string }{
		// Every child deleted: the element self-closes.
		{`<r><people><p>a</p><p/>t<p>b</p></people><q/></r>`, `/r/people/p`},
		{`<r><people><p>a</p><p/><p>b</p></people><q/></r>`, `//p`},
		// Insert into, rename, replace a childless element.
		{`<r><a/><b>t</b></r>`, `/r/a`},
		// The root element itself.
		{`<r x="1&amp;"><a/></r>`, `/r`},
		{`<r><r><r/></r></r>`, `//r`},
		// Text-only children, with escapes.
		{`<r><a>x &lt; y</a><a>&amp;</a><b>z</b></r>`, `//a`},
		// Nested selections below a '//' state.
		{`<r><a><b><a><c/></a></b></a><d><a/></d></r>`, `/r//a`},
		{`<r><a><b><a><c/></a></b></a><d><a/></d></r>`, `//a//c`},
		{`<r><a><b/></a><a/></r>`, `/r/*`},
		// A label absent from the document.
		{`<r><a><b/></a></r>`, `//zz`},
	}
	for _, tc := range cases {
		d, err := sax.ParseString(tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		root, ix, _ := tree.Freeze(d, nil)
		imageOf(ix)
		for _, q := range updates(xpath.MustParse(tc.path)) {
			name := fmt.Sprintf("%s %s on %s", q.Update.Op, tc.path, tc.doc)
			emitOracle(t, name, q, d)
			emitOracle(t, name+" (chain)", q, root)
		}
	}
	// Every element child of people deleted: <people/>.
	c, err := (&Query{Var: "a", Doc: "d", Update: Update{Op: Delete, Path: xpath.MustParse(`//p`)}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sax.ParseString(`<r><people><p/><p>x</p></people></r>`)
	var b bytes.Buffer
	if _, err := EmitTopDown(context.Background(), c, d, &b); err != nil || b.String() != `<r><people/></r>` {
		t.Fatalf("got %q, %v; want <r><people/></r>", b.String(), err)
	}
}

// TestEmitTopDownManyLabels: a document with more than 64 distinct
// labels, so label bits collide in the masks; every selection is still
// found, through the image's masks and without them.
func TestEmitTopDownManyLabels(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "<g%d><l%d><m%d>t</m%d></l%d></g%d>", i%7, i, (i*37)%150, (i*37)%150, i, i%7)
	}
	b.WriteString("</r>")
	d, err := sax.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	root, ix, _ := tree.Freeze(d, nil)
	imageOf(ix)
	for _, path := range []string{`//m3`, `//l64`, `/r/g1//m100`, `//l65/m`, `//g2//l130`, `//m149`} {
		for _, q := range updates(xpath.MustParse(path)) {
			name := fmt.Sprintf("%s %s", q.Update.Op, path)
			emitOracle(t, name, q, d)
			emitOracle(t, name+" (chain)", q, root)
		}
	}
}

// TestEmitTopDownForeignSubtree: a tree holding a subtree stamped by
// another index — whose symbols are another table's and whose labels
// this document's table may lack — is walked into, plain and as an
// imaged chain of its own (tree.StampChain).
func TestEmitTopDownForeignSubtree(t *testing.T) {
	for _, stamp := range []bool{false, true} {
		other, _ := sax.ParseString(`<o><only><deep>x</deep></only><a/></o>`)
		oroot, oix, _ := tree.Freeze(other, nil)
		imageOf(oix)
		shared := oroot.Children[0]
		d := tree.NewDocument(tree.NewElement("r",
			tree.NewElement("a", tree.NewElement("b")),
			tree.NewElement("wrap", shared),
		))
		if stamp {
			imageOf(tree.StampChain(d))
		} else {
			tree.EnsureIndex(d)
		}
		for _, path := range []string{`//deep`, `//only`, `/r//a`, `/r/wrap/o/only/deep`, `//b`} {
			for _, q := range updates(xpath.MustParse(path)) {
				emitOracle(t, fmt.Sprintf("stamp=%v %s %s", stamp, q.Update.Op, path), q, d)
			}
		}
	}
}

// failingWriter fails every write and counts them.
type failingWriter struct{ calls int }

var errBroken = errors.New("broken pipe")

func (f *failingWriter) Write(p []byte) (int, error) { f.calls++; return 0, errBroken }

// TestEmitTopDownStopsAtWriteError: the walk stops at the writer's first
// error and returns it; nothing is written after it.
func TestEmitTopDownStopsAtWriteError(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&b, "<a><b>text %d</b></a>", i)
	}
	b.WriteString("</r>")
	d, err := sax.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{`//b`, `//zz`} {
		c, err := (&Query{Var: "a", Doc: "d", Update: Update{Op: Rename, Path: xpath.MustParse(path), Label: "c"}}).Compile()
		if err != nil {
			t.Fatal(err)
		}
		w := &failingWriter{}
		if _, err := EmitTopDown(context.Background(), c, d, w); !errors.Is(err, errBroken) {
			t.Fatalf("%s: err = %v, want the writer's", path, err)
		}
		if w.calls != 1 {
			t.Fatalf("%s: %d writes after the first failed", path, w.calls-1)
		}
	}
}
