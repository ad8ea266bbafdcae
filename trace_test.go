package xtq

import (
	"context"
	"testing"

	"xtq/internal/obs"
)

// TestEvalTrace drives one explained evaluation end to end and asserts
// the trace reports the method actually run, the query-cache outcome,
// the document size, and a plausible nodes-visited figure from the
// evaluator's cancellation counter.
func TestEvalTrace(t *testing.T) {
	eng := NewEngine(WithMethod(MethodTopDown))
	src := `transform copy $a := doc("d") modify do delete $a//price return $a`

	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	p, err := eng.PrepareContext(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if hit, known := tr.CacheHit(); !known || hit {
		t.Fatalf("first prepare: hit=%v known=%v, want miss", hit, known)
	}
	if tr.Compile() <= 0 {
		t.Fatal("compile time not recorded on a cache miss")
	}

	doc, err := GenerateXMark(XMarkConfig{Factor: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(ctx, doc); err != nil {
		t.Fatal(err)
	}
	if got := tr.Method(); got != string(MethodTopDown) {
		t.Fatalf("trace method = %q, want %q", got, MethodTopDown)
	}
	if tr.DocNodes() <= 0 {
		t.Fatal("doc nodes not recorded")
	}
	if tr.Eval() <= 0 {
		t.Fatal("eval time not recorded")
	}
	if v := tr.NodesVisited(); v <= 0 || v > 4*tr.DocNodes() {
		t.Fatalf("nodes visited = %d with %d doc nodes", v, tr.DocNodes())
	}

	// A second prepare of the same source is a cache hit on a fresh trace.
	tr2 := obs.NewTrace()
	if _, err := eng.PrepareContext(obs.WithTrace(context.Background(), tr2), src); err != nil {
		t.Fatal(err)
	}
	if hit, known := tr2.CacheHit(); !known || !hit {
		t.Fatalf("re-prepare: hit=%v known=%v, want hit", hit, known)
	}
}

// TestEvalTraceDocNodesOverDerivedTree: a tree derived from a store
// snapshot shares most of its nodes with the snapshot, whose index keeps
// them, so the derived tree's own index covers only its new spine. The
// traced document size must still count every node of the tree.
func TestEvalTraceDocNodesOverDerivedTree(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithMethod(MethodTopDown))
	st := NewStore(eng)
	xml := `<db><part><pname>kb</pname><price>9</price></part><part><pname>mouse</pname><price>5</price></part></db>`
	snap, _, err := st.Put(ctx, "d", FromString(xml))
	if err != nil {
		t.Fatal(err)
	}
	derive, err := eng.Prepare(`transform copy $a := doc("d") modify do rename $a/db/part[pname = "kb"] as item return $a`)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := derive.Eval(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare(`transform copy $a := doc("d") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Node{derived, snap.Root()} {
		tr := obs.NewTrace()
		if _, err := p.Eval(obs.WithTrace(ctx, tr), d); err != nil {
			t.Fatal(err)
		}
		if got, want := tr.DocNodes(), d.Size(); got != want {
			t.Errorf("traced doc nodes = %d, want %d", got, want)
		}
	}
}
