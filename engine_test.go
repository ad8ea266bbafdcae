package xtq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/queries"
)

func TestEngineCacheHitsAndEviction(t *testing.T) {
	eng := NewEngine()
	eng.queries = newLRUCache(2, "query") // a small cache makes eviction cheap to reach
	q1 := `transform copy $a := doc("d") modify do delete $a//price return $a`
	q2 := `transform copy $a := doc("d") modify do delete $a//sname return $a`
	q3 := `transform copy $a := doc("d") modify do delete $a//country return $a`

	p1, err := eng.Prepare(q1)
	if err != nil {
		t.Fatal(err)
	}
	p1again, err := eng.Prepare(q1)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, size := eng.CacheStats(); hits != 1 || misses != 1 || size != 1 {
		t.Errorf("after re-prepare: hits=%d misses=%d size=%d, want 1/1/1", hits, misses, size)
	}
	// The cached compiled form is shared between handles.
	if p1.compiled != p1again.compiled {
		t.Error("re-prepared query did not reuse the compiled form")
	}

	// Fill the cache beyond capacity: q1 (LRU) must be evicted.
	if _, err := eng.Prepare(q2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Prepare(q3); err != nil {
		t.Fatal(err)
	}
	if _, _, size := eng.CacheStats(); size != 2 {
		t.Errorf("cache size = %d, want capacity 2", size)
	}
	if _, err := eng.Prepare(q1); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := eng.CacheStats(); hits != 1 || misses != 4 {
		t.Errorf("evicted query re-prepare: hits=%d misses=%d, want 1/4", hits, misses)
	}
}

// TestEvalWithEveryMethod runs every method as an evaluation argument
// on one engine: over U1–U10 × the four update kinds each method's
// result equals the copy-then-update oracle, and the engine compiles
// each query once, whatever the methods its evaluations name.
func TestEvalWithEveryMethod(t *testing.T) {
	ctx := context.Background()
	doc, err := GenerateXMark(XMarkConfig{Factor: 0.002, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for i := 1; i <= 10; i++ {
		for _, op := range allOps {
			p := mustPrepare(t, eng, queries.TransformOp(i, op).String())
			oracle, err := p.EvalWith(ctx, doc, MethodCopyUpdate)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.String()
			for _, m := range append(Methods(), MethodAuto) {
				got, err := p.EvalWith(ctx, doc, m)
				if err != nil {
					t.Fatalf("U%d %s %s: %v", i, op, m, err)
				}
				if got.String() != want {
					t.Fatalf("U%d %s: %s differs from copyupdate", i, op, m)
				}
			}
		}
	}
	if hits, misses, _ := eng.CacheStats(); hits != 0 || misses != 10*uint64(len(allOps)) {
		t.Errorf("cache hits=%d misses=%d, want 0/%d: one compile per query", hits, misses, 10*len(allOps))
	}

	// The method the trace reports is the evaluation's, not the
	// engine's: a forced method carries no plan section, auto does.
	p := mustPrepare(t, NewEngine(WithMethod(MethodAuto)), queries.Transform(1).String())
	for _, m := range []Method{MethodNaive, MethodAuto} {
		tr := obs.NewTrace()
		if _, err := p.EvalWith(obs.WithTrace(ctx, tr), doc, m); err != nil {
			t.Fatal(err)
		}
		if auto := m == MethodAuto; tr.Method() != string(core.Resolve(m)) || (tr.Plan() != nil) != auto {
			t.Errorf("EvalWith(%s): trace method %q, plan %+v", m, tr.Method(), tr.Plan())
		}
	}
}

// openCounter is a Source that counts its Opens and never yields a
// document.
type openCounter struct{ opens int }

func (o *openCounter) Open() (io.ReadCloser, error) {
	o.opens++
	return io.NopCloser(failingReader{}), nil
}

// TestEvalWithUnknownMethod rejects a method name before reading the
// source: the error is typed KindEval, not the source's KindIO.
func TestEvalWithUnknownMethod(t *testing.T) {
	p := mustPrepare(t, NewEngine(), `transform copy $a := doc("d") modify do delete $a//price return $a`)
	src := &openCounter{}
	_, err := p.EvalWith(context.Background(), src, Method("bogus"))
	var xe *Error
	if !errors.As(err, &xe) || xe.Kind != KindEval || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("EvalWith(bogus) = %v, want a KindEval unknown-method error", err)
	}
	if src.opens != 0 {
		t.Errorf("source opened %d times before the method was checked", src.opens)
	}
}

// TestPreparedConcurrent evaluates one shared Prepared from many
// goroutines across all three entry points; run with -race this asserts
// the goroutine-safety claim of the API.
func TestPreparedConcurrent(t *testing.T) {
	const src = `transform copy $a := doc("d") modify do delete $a//price return $a`
	eng := NewEngine(WithMethod(MethodTwoPass))
	p := mustPrepare(t, eng, src)
	doc, err := GenerateXMark(XMarkConfig{Factor: 0.002, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	xml := []byte(doc.String())
	view, err := eng.View(src)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := p.Eval(ctx, doc); err != nil {
					errs <- fmt.Errorf("Eval: %w", err)
					return
				}
				if _, err := p.EvalStream(ctx, BytesSource(xml), Discard()); err != nil {
					errs <- fmt.Errorf("EvalStream: %w", err)
					return
				}
				pv, err := view.Prepare(`for $x in /site/regions//item return $x/name`)
				if err != nil {
					errs <- fmt.Errorf("View.Prepare: %w", err)
					return
				}
				if _, _, err := pv.Eval(ctx, doc); err != nil {
					errs <- fmt.Errorf("PreparedView.Eval: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// cancelAfterSource serves a document but cancels the attached context
// once the second pass has read a chunk — deterministic mid-document
// cancellation for a stream that would otherwise complete.
type cancelAfterSource struct {
	data   []byte
	cancel context.CancelFunc
	opens  int
}

func (s *cancelAfterSource) Open() (io.ReadCloser, error) {
	s.opens++
	if s.opens < 2 {
		return io.NopCloser(bytes.NewReader(s.data)), nil
	}
	return &cancellingReader{r: bytes.NewReader(s.data), cancel: s.cancel}, nil
}

type cancellingReader struct {
	r      io.Reader
	cancel context.CancelFunc
	reads  int
}

func (c *cancellingReader) Read(p []byte) (int, error) {
	c.reads++
	if c.reads == 2 {
		// The first chunk is flowing through the evaluator; cancel now
		// so the abort happens mid-document.
		c.cancel()
	}
	if len(p) > 512 {
		p = p[:512] // small chunks so cancellation lands mid-stream
	}
	return c.r.Read(p)
}

func (c *cancellingReader) Close() error { return nil }

// endDocumentRecorder flags whether the output stream ever completed.
type endDocumentRecorder struct {
	mu    sync.Mutex
	ended bool
	n     int
}

func (r *endDocumentRecorder) StartDocument() error { return nil }
func (r *endDocumentRecorder) StartElement(string, []Attr) error {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	return nil
}
func (r *endDocumentRecorder) Text(string) error       { return nil }
func (r *endDocumentRecorder) EndElement(string) error { return nil }
func (r *endDocumentRecorder) EndDocument() error {
	r.mu.Lock()
	r.ended = true
	r.mu.Unlock()
	return nil
}

// TestEvalStreamMidDocumentCancellation cancels the context while the
// second pass is emitting output and asserts the stream aborts with a
// typed cancellation error before the document completes.
func TestEvalStreamMidDocumentCancellation(t *testing.T) {
	doc, err := GenerateXMark(XMarkConfig{Factor: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xml := []byte(doc.String())

	eng := NewEngine()
	p := mustPrepare(t, eng, `transform copy $a := doc("d") modify do delete $a//increase return $a`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterSource{data: xml, cancel: cancel}
	rec := &endDocumentRecorder{}
	_, err = p.EvalStream(ctx, src, ToHandler(rec))
	if err == nil {
		t.Fatal("cancelled stream completed")
	}
	var xe *Error
	if !errors.As(err, &xe) || xe.Kind != KindEval {
		t.Errorf("mid-stream cancellation not KindEval: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	if rec.ended {
		t.Error("output stream ran to EndDocument despite cancellation")
	}
	if rec.n == 0 {
		t.Error("cancellation hit before any output: not a mid-document abort")
	}
}

// TestSourceUnification drives one prepared query through every Source
// shape on both the in-memory and the streaming entry points.
func TestSourceUnification(t *testing.T) {
	const docXML = `<db><part><pname>kb</pname><price>9</price></part></db>`
	ctx := context.Background()
	eng := NewEngine()
	p := mustPrepare(t, eng, `transform copy $a := doc("d") modify do delete $a//price return $a`)

	node, err := ParseString(docXML)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/doc.xml"
	if err := writeFile(path, docXML); err != nil {
		t.Fatal(err)
	}

	sources := map[string]Source{
		"node":   node,
		"file":   FileSource(path),
		"bytes":  BytesSource(docXML),
		"string": FromString(docXML),
	}
	for name, src := range sources {
		out, err := p.Eval(ctx, src)
		if err != nil {
			t.Fatalf("Eval(%s): %v", name, err)
		}
		if strings.Contains(out.String(), "<price>") {
			t.Errorf("Eval(%s): price not deleted", name)
		}
		var sb strings.Builder
		if _, err := p.EvalStream(ctx, src, ToWriter(&sb)); err != nil {
			t.Fatalf("EvalStream(%s): %v", name, err)
		}
		if strings.Contains(sb.String(), "<price>") {
			t.Errorf("EvalStream(%s): price not deleted in %q", name, sb.String())
		}
	}

	// FromReader buffers, so it also survives the streaming evaluator's
	// two passes. (A fresh one per use: a reader has one shot.)
	var sb strings.Builder
	if _, err := p.EvalStream(ctx, FromReader(strings.NewReader(docXML)), ToWriter(&sb)); err != nil {
		t.Fatalf("EvalStream(reader): %v", err)
	}
	if strings.Contains(sb.String(), "<price>") {
		t.Errorf("EvalStream(reader): price not deleted")
	}
	if out, err := p.Eval(ctx, FromReader(strings.NewReader(docXML))); err != nil {
		t.Fatalf("Eval(reader): %v", err)
	} else if strings.Contains(out.String(), "<price>") {
		t.Errorf("Eval(reader): price not deleted")
	}
}

func TestEngineMaxDepth(t *testing.T) {
	eng := NewEngine(WithMaxDepth(3))
	p := mustPrepare(t, eng, `transform copy $a := doc("d") modify do delete $a//x return $a`)
	_, err := p.Eval(context.Background(), FromString("<a><b><c><d>deep</d></c></b></a>"))
	var xe *Error
	if !errors.As(err, &xe) || xe.Kind != KindParse {
		t.Errorf("depth overflow not a parse error: %v", err)
	}
	if _, err := p.Eval(context.Background(), FromString("<a><b><c>ok</c></b></a>")); err != nil {
		t.Errorf("depth-3 document rejected: %v", err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestWrapperDocArgRoundTrip: Engine.PrepareQuery caches by
// Query.String(), so queries whose doc() argument contains a quote
// character must render back into parseable surface syntax.
func TestWrapperDocArgRoundTrip(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine()
	doc, err := ParseString(`<db><part><price>9</price></part></db>`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`transform copy $a := doc('x"y') modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.PrepareQuery(q)
	if err != nil {
		t.Fatalf("PrepareQuery with quoted doc arg: %v", err)
	}
	out, err := p.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "<price>") {
		t.Error("price not deleted")
	}
	// Repeat calls hit the engine's cache.
	h0, _, _ := eng.CacheStats()
	if _, err := eng.PrepareQuery(q); err != nil {
		t.Fatal(err)
	}
	if h1, _, _ := eng.CacheStats(); h1 <= h0 {
		t.Errorf("PrepareQuery bypassed the engine cache (hits %d -> %d)", h0, h1)
	}
	// Both quote kinds in the argument: not expressible in surface
	// syntax, so the engine must bypass the cache rather than fail.
	q2 := &Query{Var: "a", Doc: `x"y'z`, Update: q.Update}
	p2, err := eng.PrepareQuery(q2)
	if err != nil {
		t.Fatalf("PrepareQuery with unrenderable doc arg: %v", err)
	}
	if _, err := p2.Eval(ctx, doc); err != nil {
		t.Fatalf("Eval with unrenderable doc arg: %v", err)
	}
}

// TestComposePreCancelled: a composition must fail deterministically on
// an already-cancelled context even for documents too small to hit the
// navigation poll.
func TestComposePreCancelled(t *testing.T) {
	eng := NewEngine()
	view, err := eng.View(`transform copy $a := doc("d") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := view.Prepare(`for $x in /db/part return $x/pname`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(`<db><part><pname>kb</pname><price>9</price></part></db>`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"compose": func() error {
			_, _, err := pv.Eval(ctx, doc)
			return err
		},
		"naive": func() error {
			_, err := pv.EvalSequential(ctx, doc)
			return err
		},
	} {
		err := run()
		var xe *Error
		if !errors.As(err, &xe) || xe.Kind != KindEval || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled context not a KindEval cancellation: %v", name, err)
		}
	}
}

// TestEvalCancelsDuringParse: for a non-Node source, Prepared.Eval must
// honour the context while the input is being parsed, not only after.
func TestEvalCancelsDuringParse(t *testing.T) {
	doc, err := GenerateXMark(XMarkConfig{Factor: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	xml := []byte(doc.String())
	eng := NewEngine()
	p := mustPrepare(t, eng, `transform copy $a := doc("d") modify do delete $a//increase return $a`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Reuse the mid-read cancelling source: it fires cancel on its
	// second read, while the DOM parse is still consuming input.
	src := &cancelAfterSource{data: xml, cancel: cancel}
	src.opens = 1 // cancel on the first (only) open
	_, err = p.Eval(ctx, src)
	var xe *Error
	if !errors.As(err, &xe) || xe.Kind != KindEval || !errors.Is(err, context.Canceled) {
		t.Errorf("cancel during parse not a KindEval cancellation: %v", err)
	}
}
