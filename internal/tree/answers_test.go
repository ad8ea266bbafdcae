package tree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// imagedChain freezes a document of the element root into a chain head
// with its image, and returns the index and the frozen root element.
func imagedChain(t *testing.T, root *Node) (*Index, *Node) {
	t.Helper()
	doc, ix, _ := Freeze(NewDocument(root), nil)
	if img := imageOf(ix); img == nil || img.Len() == 0 {
		t.Fatal("no image")
	}
	return ix, doc.Children[0]
}

// recorderFor notes query q over ix and returns the recorder its second
// read hands out.
func recorderFor(t *testing.T, ix *Index, q uint64) *Recorder {
	t.Helper()
	if rec, r := ix.ReadAnswer(q); rec != nil || r != nil {
		t.Fatal("the first read of a pair did more than note it")
	}
	rec, r := ix.ReadAnswer(q)
	if rec != nil || r == nil {
		t.Fatal("the second read of a pair over an imaged chain does not record")
	}
	return r
}

// kinds lists the segment kinds of rec.
func kinds(rec *Recording) string {
	var b strings.Builder
	for _, s := range rec.segs {
		kind, _, _ := unpackSeg(s)
		b.WriteByte("ILS"[kind])
	}
	return b.String()
}

// TestRecorderSegments: what an Emitter hands its recorder becomes image
// ranges (adjacent ones and literal bytes equal to the image's next
// bytes folded into one), literal runs and shared-slice occurrences,
// and the published recording replays the bytes written.
func TestRecorderSegments(t *testing.T) {
	ix, root := imagedChain(t, NewElement("r",
		NewElement("a", NewElement("b", NewText("x & y"))),
		NewElement("c", NewText("y")),
		NewElement("a", NewElement("b", NewText("z"))),
		NewElement("pad", NewText(strings.Repeat("p", 200)))))
	a1, a2 := root.Children[0], root.Children[2]
	r := recorderFor(t, ix, 1)
	konst := []byte(`<k v="1"/>`)

	var out bytes.Buffer
	e := NewEmitter(&out)
	e.Record(r)
	e.Raw("<r>")           // the image's first bytes, but no range precedes
	e.Node(a1)             // an image range
	e.Raw("<c>y</c>")      // the image's next bytes: folded into the range
	e.Text("d")            // a literal run
	e.Node(a2.Children[0]) // another range
	e.Shared(konst)
	e.Shared(konst)
	e.Shared([]byte(`<k v="1"/>`)) // equal bytes, another slice: literal
	e.Raw("</a></r>")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if !r.Publish() {
		t.Fatal("the recording was not published")
	}
	rec, again := ix.ReadAnswer(1)
	if rec == nil || again != nil {
		t.Fatal("the third read does not replay")
	}
	if got, want := kinds(rec), "LILISSL"; got != want {
		t.Errorf("segments %s, want %s", got, want)
	}
	if got, want := string(rec.lit), `<r>d<k v="1"/></a></r>`; got != want {
		t.Errorf("literal bytes %q, want %q", got, want)
	}
	var replay bytes.Buffer
	re := NewEmitter(&replay)
	rec.Emit(&re)
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if replay.String() != out.String() {
		t.Fatalf("replay %q, walk %q", replay.String(), out.String())
	}
	var a Account
	if a.Add(ix); a.Bytes[DerivedAnswers] != int64(rec.size()) {
		t.Fatalf("chain charged %d bytes, the recording is %d", a.Bytes[DerivedAnswers], rec.size())
	}
}

// TestRecorderSpillsAndWritesThrough: literal runs taken from spilled
// buffers and strings written straight through, and image ranges larger
// than the buffer, are all recorded in order.
func TestRecorderSpillsAndWritesThrough(t *testing.T) {
	var kids []*Node
	for i := 0; i < 10000; i++ {
		kids = append(kids, NewElement("p", NewText(fmt.Sprintf("leaf %d", i))))
	}
	ix, root := imagedChain(t, NewElement("r", NewElement("big", kids...), NewElement("s", NewText("t"))))
	big := root.Children[0]
	r := recorderFor(t, ix, 7)
	var out bytes.Buffer
	e := NewEmitter(&out)
	e.Record(r)
	for i := 0; i < 1000; i++ {
		e.Raw(fmt.Sprintf("<lit n=\"%d\"/>", i))
	}
	e.Node(big)
	e.Raw(strings.Repeat("w", emitBufSize+10))
	e.Node(big)
	e.Text("a < b")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if !r.Publish() {
		t.Fatal("not published")
	}
	rec, _ := ix.ReadAnswer(7)
	var replay bytes.Buffer
	re := NewEmitter(&replay)
	rec.Emit(&re)
	re.Flush()
	if replay.String() != out.String() {
		t.Fatalf("replay of %d bytes differs from the %d written", replay.Len(), out.Len())
	}
}

// TestRecorderOverBudget: a recording larger than the chain's image is
// abandoned and never published; the pair stays noted.
func TestRecorderOverBudget(t *testing.T) {
	ix, _ := imagedChain(t, NewElement("r", NewElement("a", NewText(strings.Repeat("x", 500)))))
	r := recorderFor(t, ix, 3)
	var out bytes.Buffer
	e := NewEmitter(&out)
	e.Record(r)
	e.Raw(strings.Repeat("<z/>", ix.LoadImage().Len()))
	e.Flush()
	if r.Publish() {
		t.Fatal("a recording over the budget was published")
	}
	if _, r := ix.ReadAnswer(3); r == nil {
		t.Fatal("the pair is no longer noted")
	}
}

// TestRecorderSplitsLongRanges: a range longer than one segment holds
// is split, and continuing ranges extend the last segment.
func TestRecorderSplitsLongRanges(t *testing.T) {
	for _, c := range []struct{ kind, off, n int }{{segImage, math.MaxUint32, segMaxLen}, {segLit, 0, 1}, {segShared, 12345, 0}} {
		if k, o, n := unpackSeg(packSeg(c.kind, c.off, c.n)); k != c.kind || o != c.off || n != c.n {
			t.Fatalf("segment %v round-trips as %d %d %d", c, k, o, n)
		}
	}
	r := &Recorder{limit: math.MaxInt}
	r.add(segImage, 10, segMaxLen+5)
	r.add(segImage, 10+segMaxLen+5, 7)
	r.add(segImage, 0, 3)
	want := []uint64{packSeg(segImage, 10, segMaxLen), packSeg(segImage, 10+segMaxLen, 12), packSeg(segImage, 0, 3)}
	if fmt.Sprint(r.rec.segs) != fmt.Sprint(want) {
		t.Fatalf("segments %v, want %v", r.rec.segs, want)
	}
}

// TestAnswerTableBudget: the first read of a chain notes its pair, and
// the chain holds that one note and no image; the second builds the
// image, after which the first pair records. Notes and recordings of
// random pairs over one chain never hold more than its image's size,
// evict oldest first, and keep the table's order, map and charge in
// step.
func TestAnswerTableBudget(t *testing.T) {
	var kids []*Node
	for i := 0; i < 200; i++ {
		kids = append(kids, NewElement("p", NewText(fmt.Sprint(i))))
	}
	_, bare, _ := Freeze(NewDocument(NewElement("r", kids...)), nil)
	if rec, r := bare.ReadAnswer(1); rec != nil || r != nil || bare.LoadImage() != nil {
		t.Fatal("the chain's first read did more than note its pair")
	}
	var a Account
	if a.Add(bare); a.Bytes[DerivedAnswers] != entryBytes {
		t.Fatalf("a chain without an image holds %d bytes of notes", a.Bytes[DerivedAnswers])
	}
	if rec, r := bare.ReadAnswer(2); rec != nil || r != nil || bare.LoadImage() == nil {
		t.Fatal("the chain's second read must build its image and only note its pair")
	}
	if _, r := bare.ReadAnswer(1); r == nil {
		t.Fatal("a pair noted before the image was built does not record")
	}

	ix, _ := imagedChain(t, NewElement("r", kids...))
	budget := ix.LoadImage().Len()
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		q := uint64(rng.Intn(40) + 1)
		_, r := ix.ReadAnswer(q)
		if r != nil {
			var out bytes.Buffer
			e := NewEmitter(&out)
			e.Record(r)
			e.Raw(strings.Repeat("<q/>", rng.Intn(budget/8)))
			e.Flush()
			r.Publish()
		}
		tab := ix.chain.ans.Load()
		tab.mu.Lock()
		used := 0
		for _, a := range tab.m {
			used += a.size
		}
		ok := used == tab.used && used <= budget && len(tab.fifo) == len(tab.m)
		tab.mu.Unlock()
		if !ok {
			t.Fatalf("step %d: table out of step (used %d/%d, budget %d)", step, used, tab.used, budget)
		}
	}
}
