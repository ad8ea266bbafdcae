package xtq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/queries"
	"xtq/internal/sax"
	"xtq/internal/store"
	"xtq/internal/tree"
)

// answerOf runs p.EvalTo over src under a fresh trace and returns the
// bytes written, how they were produced and the nodes the run visited.
func answerOf(t *testing.T, ctx context.Context, p *Prepared, src Source) (out, answer string, visits int) {
	t.Helper()
	tr := obs.NewTrace()
	var b bytes.Buffer
	if err := p.EvalTo(obs.WithTrace(ctx, tr), src, &b); err != nil {
		t.Fatal(err)
	}
	return b.String(), tr.Answer(), tr.NodesVisited()
}

// copyUpdateOracle is q's answer over root by copy-then-update, written
// by sax.Emit. The copy is unstamped, so no image covers it.
func copyUpdateOracle(t *testing.T, q *Query, root *Node) string {
	t.Helper()
	res, err := q.Eval(root, core.MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	return emitted(t, res)
}

// runs checks that p's runs over snap answer want and are produced as
// the answers say, in order ("" for any).
func runs(t *testing.T, name string, p *Prepared, snap *Snapshot, want string, answers ...string) {
	t.Helper()
	for k, a := range answers {
		got, answer, visits := answerOf(t, context.Background(), p, snap)
		if got != want {
			t.Fatalf("%s, run %d (%s): the answer differs from copy-then-update", name, k+1, answer)
		}
		if a != "" && answer != a {
			t.Fatalf("%s, run %d: answered by %s, want %s", name, k+1, answer, a)
		}
		if answer == "replay" && visits != 0 {
			t.Fatalf("%s, run %d: a replay visited %d nodes", name, k+1, visits)
		}
	}
}

// TestEmitTopDownReplayMatchesWalk: the first, second and third run of
// each of the 40 transforms of U1-U10 over an imaged XMark 0.05 version
// are a walk that notes the pair, a walk that records it and a replay,
// and all three write the bytes of copy-then-update emitted by sax.Emit.
// Under the race detector, which runs it as a concurrency pin and is
// about ten times slower, the document is XMark 0.01. The edge cases
// are below.
func TestEmitTopDownReplayMatchesWalk(t *testing.T) {
	ctx := context.Background()
	factor := 0.05
	if raceEnabled {
		factor = 0.01
	}
	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", benchDoc(t, factor))
	if err != nil {
		t.Fatal(err)
	}
	snap.Index().Image()
	for i := 1; i <= 10; i++ {
		for _, op := range allOps {
			q := queries.TransformOp(i, op)
			p, err := st.Engine().PrepareQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			runs(t, fmt.Sprintf("U%d %s", i, op), p, snap, copyUpdateOracle(t, q, snap.Root()), "walk", "record", "replay")
		}
	}
	recorded, total := snap.Index().AnswerBytes()
	if recorded <= 0 || total > snap.Index().LoadImage().Len() {
		t.Fatalf("40 recordings are charged %d bytes (%d with notes), the image holds %d", recorded, total, snap.Index().LoadImage().Len())
	}
	t.Logf("40 recordings: %d bytes charged, image %d bytes", recorded, snap.Index().LoadImage().Len())
}

// prepare compiles a transform on st's engine.
func prepare(t *testing.T, st *Store, src string) *Prepared {
	t.Helper()
	p, err := st.Engine().Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// putString ingests doc as name and returns its snapshot, with the
// chain's image built when image is set.
func putString(t *testing.T, st *Store, name, doc string, image bool) *Snapshot {
	t.Helper()
	snap, _, err := st.Put(context.Background(), name, FromString(doc))
	if err != nil {
		t.Fatal(err)
	}
	if image {
		snap.Index().Image()
	}
	return snap
}

// manyParts returns a document of n parts.
func manyParts(n int) string {
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<part id="%d"><pname>p%d &amp; co</pname><price>%d</price></part>`, i, i, i)
	}
	b.WriteString("</db>")
	return b.String()
}

const (
	deletePrice = `transform copy $a := doc("d") modify do delete $a//price return $a`
	renamePname = `transform copy $a := doc("d") modify do rename $a//pname as label return $a`
)

// TestEmitTopDownReplayFailedRecording: a recording run cancelled
// mid-walk, or whose writer fails mid-walk, publishes nothing: the next
// run records again, and only the one after it replays.
func TestEmitTopDownReplayFailedRecording(t *testing.T) {
	st := NewStore(nil)
	snap := putString(t, st, "d", manyParts(3000), true)
	q := core.MustParseQuery(renamePname)
	want := copyUpdateOracle(t, q, snap.Root())
	if len(want) < 2*64<<10 {
		t.Fatalf("answer of %d bytes: too small to fail mid-walk", len(want))
	}
	cancelAtFirstWrite := func(p *Prepared) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := &cancelWriter{cancel: cancel}
		if err := p.EvalTo(ctx, snap, w); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled recording: err = %v", err)
		}
	}
	failAtSecondWrite := func(p *Prepared) {
		if err := p.EvalTo(context.Background(), snap, &failAfter{n: 1}); !errors.Is(err, errWriterGone) {
			t.Fatalf("failed recording: err = %v", err)
		}
	}
	for name, fail := range map[string]func(*Prepared){"cancel": cancelAtFirstWrite, "write error": failAtSecondWrite} {
		p, err := NewEngine().Prepare(renamePname)
		if err != nil {
			t.Fatal(err)
		}
		runs(t, name, p, snap, want, "walk")
		fail(p)
		runs(t, name+" after the failure", p, snap, want, "record", "replay", "replay")
	}
}

// cancelWriter cancels its context at the first write and accepts it.
type cancelWriter struct{ cancel func() }

func (c *cancelWriter) Write(p []byte) (int, error) {
	c.cancel()
	return len(p), nil
}

// TestEmitTopDownReplayAcrossVersions: a commit between runs gives a
// version that never replays the old one's answer, while the old
// version, held or read again from the history ring, still replays its
// own. A version reconstructed from the log of a durable store heads a
// chain of its own, which records once it has an image.
func TestEmitTopDownReplayAcrossVersions(t *testing.T) {
	ctx := context.Background()
	st, err := OpenStore(t.TempDir(), nil, WithFsync(FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v1 := putString(t, st, "d", manyParts(200), true)
	// One part goes, so every answer is a few image ranges and the
	// chain's budget holds the answers of all its versions.
	const deletePart = `transform copy $a := doc("d") modify do delete $a/db/part[@id = "3"] return $a`
	p := prepare(t, st, deletePart)
	q := core.MustParseQuery(deletePart)
	want1 := copyUpdateOracle(t, q, v1.Root())
	runs(t, "v1", p, v1, want1, "walk", "record", "replay")
	insert := `transform copy $a := doc("d") modify do insert <extra>0</extra> into $a/db/part[@id = "7"] return $a`
	v2, _, err := st.Apply(ctx, "d", insert)
	if err != nil {
		t.Fatal(err)
	}
	want2 := copyUpdateOracle(t, q, v2.Root())
	if want2 == want1 {
		t.Fatal("the commit does not change the answer")
	}
	runs(t, "v2", p, v2, want2, "walk", "record", "replay")
	runs(t, "v1 held", p, v1, want1, "replay")
	ring, err := st.SnapshotAt(ctx, "d", v1.Version())
	if err != nil {
		t.Fatal(err)
	}
	runs(t, "v1 from the history ring", p, ring, want1, "replay")
	for k := 0; k < 2*store.DefaultHistoryDepth; k++ {
		if _, _, err := st.Apply(ctx, "d", `transform copy $a := doc("d") modify do rename $a/db/part[@id = "9"]/pname as pname return $a`); err != nil {
			t.Fatal(err)
		}
	}
	old, err := st.SnapshotAt(ctx, "d", v1.Version())
	if err != nil {
		t.Fatal(err)
	}
	if old.Index().LoadImage() != nil {
		t.Fatal("the reconstructed version shares the chain's image")
	}
	runs(t, "v1 reconstructed", p, old, want1, "walk", "walk")
	old.Index().Image()
	runs(t, "v1 reconstructed, imaged", p, old, want1, "record", "replay")
}

// TestEmitTopDownReplayAfterCompaction: a commit that compacts the chain
// (PathCopy's Freeze fallback) starts a chain without an image, which
// never replays; once its image is built, its answers record and replay.
func TestEmitTopDownReplayAfterCompaction(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	putString(t, st, "d", manyParts(40), false)
	big := `transform copy $a := doc("d") modify do insert <big>` + strings.Repeat("<x>v</x>", 2500) + `</big> into $a/db return $a`
	snap, _, err := st.Apply(ctx, "d", big)
	if err != nil {
		t.Fatal(err)
	}
	snap.Index().Image()
	p := prepare(t, st, renamePname)
	q := core.MustParseQuery(renamePname)
	runs(t, "before", p, snap, copyUpdateOracle(t, q, snap.Root()), "walk", "record", "replay")
	img := snap.Index().LoadImage()
	snap, _, err = st.Apply(ctx, "d", `transform copy $a := doc("d") modify do delete $a//big return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if cur := snap.Index().LoadImage(); cur != nil || img == nil {
		t.Fatal("the commit did not start a chain without an image")
	}
	want := copyUpdateOracle(t, q, snap.Root())
	runs(t, "compacted, no image", p, snap, want, "walk", "walk", "walk")
	snap.Index().Image()
	runs(t, "compacted, imaged", p, snap, want, "record", "replay")
}

// TestEmitTopDownReplayEdgeCases: a chain with no image yet never
// records; more than 64 labels; a document whose root element has
// comment, processing-instruction or text siblings; an insert whose
// constant repeats thousands of times, held as one shared slice.
func TestEmitTopDownReplayEdgeCases(t *testing.T) {
	st := NewStore(nil)
	noImage := putString(t, st, "d", manyParts(50), false)
	q := core.MustParseQuery(deletePrice)
	runs(t, "no image", prepare(t, st, deletePrice), noImage, copyUpdateOracle(t, q, noImage.Root()), "walk", "walk", "walk")

	var many strings.Builder
	many.WriteString("<r>")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&many, "<g%d><l%d><m%d>t</m%d></l%d></g%d>", i%7, i, (i*37)%150, (i*37)%150, i, i%7)
	}
	many.WriteString("</r>")
	labels := putString(t, st, "labels", many.String(), true)
	for _, path := range []string{`//m3`, `//l64`, `/r/g1//m100`, `//g2//l130`} {
		for _, op := range []string{"delete $a" + path, "rename $a" + path + " as z", "insert <n>&amp;</n> into $a" + path} {
			src := `transform copy $a := doc("d") modify do ` + op + ` return $a`
			runs(t, op, prepare(t, st, src), labels, copyUpdateOracle(t, core.MustParseQuery(src), labels.Root()), "walk", "record", "replay")
		}
	}

	parsed := putString(t, st, "pi", `<?xml version="1.0"?><!-- head --><?pi data?>`+manyParts(30)+`<!-- tail -->`, true)
	runs(t, "comment and pi siblings", prepare(t, st, deletePrice), parsed, copyUpdateOracle(t, q, parsed.Root()), "walk", "record", "replay")
	d, err := sax.ParseString(manyParts(30))
	if err != nil {
		t.Fatal(err)
	}
	d.Children = []*tree.Node{tree.NewText("lead & in"), d.Children[0], tree.NewText("trail")}
	texts, _, err := st.Put(context.Background(), "texts", d)
	if err != nil {
		t.Fatal(err)
	}
	texts.Index().Image()
	runs(t, "text siblings", prepare(t, st, deletePrice), texts, copyUpdateOracle(t, q, texts.Root()), "walk", "record", "replay")

	var flat strings.Builder
	flat.WriteString("<r>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&flat, "<a><t>leaf %d of the repeated-constant document</t></a>", i)
	}
	flat.WriteString("</r>")
	rep := putString(t, st, "rep", flat.String(), true)
	konst := `<k note="` + strings.Repeat("c", 200) + `"/>`
	src := `transform copy $a := doc("d") modify do insert ` + konst + ` into $a//a return $a`
	p := prepare(t, st, src)
	want := copyUpdateOracle(t, core.MustParseQuery(src), rep.Root())
	runs(t, "repeated constant", p, rep, want, "walk")
	runs(t, "repeated constant", p, rep, want, "record", "replay")
	if charged, _ := rep.Index().AnswerBytes(); charged <= 0 || charged > 5000*len(konst)/4 {
		t.Fatalf("the recording of 5000 %d-byte constants is charged %d bytes", len(konst), charged)
	}
}

// TestEmitTopDownReplayEviction: a chain whose answers outgrow its
// image's size evicts the oldest recording first; the evicted pair is
// noted again and walks.
func TestEmitTopDownReplayEviction(t *testing.T) {
	st := NewStore(nil)
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&doc, "<a>%d</a>", i)
	}
	doc.WriteString("<keep>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&doc, "<x>%d</x>", i)
	}
	doc.WriteString("</keep></r>")
	snap := putString(t, st, "d", doc.String(), true)
	// Every renamed <a> is written by the walk itself and <keep> is one
	// image range, so each answer records about half the image's size
	// as literal bytes: one fits the chain's budget, two do not.
	first := prepare(t, st, `transform copy $a := doc("d") modify do rename $a/r/a as b return $a`)
	second := prepare(t, st, `transform copy $a := doc("d") modify do rename $a/r/a as c return $a`)
	want1 := copyUpdateOracle(t, first.Query(), snap.Root())
	want2 := copyUpdateOracle(t, second.Query(), snap.Root())
	runs(t, "first", first, snap, want1, "walk", "record", "replay")
	runs(t, "second", second, snap, want2, "walk", "record", "replay")
	runs(t, "first after eviction", first, snap, want1, "walk", "record", "replay")
	runs(t, "second after eviction", second, snap, want2, "walk")
}

// TestConcurrentQueryReplayDuringRecord: four goroutines answer one
// (query, version) pair over and over while its chain's second read
// builds the image, so the note, the recording (raced by several
// recorders, one of which publishes), the replay and the image build
// interleave; every answer is the walk's.
func TestConcurrentQueryReplayDuringRecord(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	snap := putString(t, st, "d", manyParts(300), false)
	want := copyUpdateOracle(t, core.MustParseQuery(renamePname), snap.Root())
	p := prepare(t, st, renamePname)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				snap.Image()
				var b bytes.Buffer
				if err := p.EvalTo(ctx, snap, &b); err != nil {
					errs <- err
					return
				}
				if b.String() != want {
					errs <- fmt.Errorf("run %d: the answer differs from the walk", k)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, answer, _ := answerOf(t, ctx, p, snap); answer != "replay" {
		t.Fatalf("after 80 runs the pair is answered by %s", answer)
	}
}
