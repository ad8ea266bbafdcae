package plan

import (
	"context"
	"testing"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

func xmarkIndex(t *testing.T, factor float64) *tree.Index {
	t.Helper()
	doc, err := xmark.Generate(xmark.Config{Factor: factor, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	_, ix, _ := tree.Freeze(doc, nil)
	return ix
}

func compile(t *testing.T, i int) *core.Compiled {
	t.Helper()
	c, err := queries.Compile(i)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Every XMark query must get a concrete, runnable decision with a reason.
func TestChooseDecisions(t *testing.T) {
	ix := xmarkIndex(t, 0.005)
	for i := 1; i <= 10; i++ {
		c := compile(t, i)
		dec := Choose(c, ix)
		if dec.Method == core.MethodAuto || dec.Method == "" {
			t.Fatalf("U%d: planner returned non-concrete method %q", i, dec.Method)
		}
		if dec.Reason == "" {
			t.Fatalf("U%d: no reason", i)
		}
		if _, err := c.EvalContext(context.Background(), ix.Root, dec.Method); err != nil {
			t.Fatalf("U%d: planned method %s fails: %v", i, dec.Method, err)
		}
	}
}

// U1 (/site/people/person, no qualifiers, no '//') runs guided top-down.
func TestChoosePrefersGuidedOnSelectivePaths(t *testing.T) {
	if dec := Choose(compile(t, 1), xmarkIndex(t, 0.01)); dec.Method != core.MethodTopDown {
		t.Fatalf("U1: chose %s, want topdown (reason: %s)", dec.Method, dec.Reason)
	}
}

// Without a document index the decision is the same.
func TestChooseWithoutStatistics(t *testing.T) {
	if dec := Choose(compile(t, 1), nil); dec.Method != core.MethodTopDown {
		t.Fatalf("nil index: chose %s, want topdown", dec.Method)
	}
}

// The rewriting and copy baselines pay whole-document passes the paper's
// measurements never see winning: no XMark query may resolve to them.
func TestBaselinesNeverWin(t *testing.T) {
	ix := xmarkIndex(t, 0.005)
	for i := 1; i <= 10; i++ {
		dec := Choose(compile(t, i), ix)
		if dec.Method == core.MethodNaive || dec.Method == core.MethodCopyUpdate {
			t.Fatalf("U%d: planner picked baseline %s", i, dec.Method)
		}
	}
}
