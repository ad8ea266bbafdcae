package compose

import (
	"context"
	"math/rand"
	"testing"

	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/xmark"
	"xtq/internal/xpath"
)

// randomStack draws a stack of the given depth, with qualifiers on any
// layer.
func randomStack(t *testing.T, rng *rand.Rand, cfg xpath.GenConfig, depth int) (*Stack, []*core.Compiled) {
	t.Helper()
	layers := make([]*core.Compiled, 0, depth)
	for len(layers) < depth {
		c, err := (&core.Query{Var: "a", Doc: "gen", Update: randomUpdate(rng, cfg)}).Compile()
		if err != nil {
			continue
		}
		layers = append(layers, c)
	}
	s, err := NewStack(layers)
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	return s, layers
}

// qualifiedAbove0 reports whether a layer above the first has
// qualifiers, which makes the stack run in more than one segment.
func qualifiedAbove0(layers []*core.Compiled) bool {
	for _, l := range layers[1:] {
		if l.NFA.HasQualifiers() {
			return true
		}
	}
	return false
}

// materializeOracle applies the stack sequentially with the
// copy-and-update baseline — the reference the fused evaluator and the
// delta path are measured against.
func materializeOracle(t *testing.T, layers []*core.Compiled, doc *tree.Node) *tree.Node {
	t.Helper()
	cur := doc
	for _, l := range layers {
		var err error
		cur, err = l.EvalContext(context.Background(), cur, core.MethodCopyUpdate)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
	}
	return cur
}

// Property: the fused Stack evaluator agrees with sequential
// materialization on random XMark documents and stacks whose layers
// carry qualifiers and attribute tests at any depth.
func TestQuickStackEvalMatchesOracle(t *testing.T) {
	cfg := xmarkGenConfig()
	segmented := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		doc, err := xmark.Generate(xmark.Config{
			Factor: 0.0005 + rng.Float64()*0.002,
			Seed:   rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, layers := randomStack(t, rng, cfg, 1+rng.Intn(3))
		if qualifiedAbove0(layers) {
			segmented++
		}
		got, memo, _, err := s.Eval(context.Background(), doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := materializeOracle(t, layers, doc)
		if !tree.Equal(got, want) {
			var stack []string
			for _, l := range layers {
				stack = append(stack, l.Query.Update.String("$a"))
			}
			t.Fatalf("seed %d: stack mismatch\n stack: %v\n got  %s\n want %s", seed, stack, got, want)
		}
		if memo.Len() == 0 {
			t.Fatalf("seed %d: empty memo", seed)
		}
	}
	if segmented == 0 {
		t.Error("no stack had a qualified layer above the first")
	}
}

// Property: delta re-evaluation through the snapshot-adoption bridge is
// byte-identical to full recomposition at every version of a random
// update sequence, exactly as the store produces them (topDown output
// adopted via Freeze), with qualifiers on any layer and updates that
// may flip them.
func TestQuickStackEvalDeltaMatchesOracle(t *testing.T) {
	cfg := xmarkGenConfig()
	totalReused, segmented := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		gen, err := xmark.Generate(xmark.Config{
			Factor: 0.0005 + rng.Float64()*0.002,
			Seed:   rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cur, curIx, _ := tree.Freeze(gen, nil)
		s, layers := randomStack(t, rng, cfg, 1+rng.Intn(3))
		if qualifiedAbove0(layers) {
			segmented++
		}
		_, memo, _, err := s.Eval(context.Background(), cur)
		if err != nil {
			t.Fatalf("seed %d: initial eval: %v", seed, err)
		}
		for step := 0; step < 6; step++ {
			var upd *core.Compiled
			for upd == nil {
				c, err := (&core.Query{Var: "a", Doc: "gen", Update: randomUpdate(rng, cfg)}).Compile()
				if err == nil {
					upd = c
				}
			}
			// The commit pipeline: evaluate copy-on-write, then adopt.
			bridge, err := upd.EvalContext(context.Background(), cur, core.MethodTopDown)
			if err != nil {
				t.Fatalf("seed %d step %d: update: %v", seed, step, err)
			}
			next, nextIx, _ := tree.Freeze(bridge, curIx)
			got, nextMemo, stats, ok, err := s.EvalDelta(context.Background(), next, bridge, memo)
			if err != nil {
				t.Fatalf("seed %d step %d: delta: %v", seed, step, err)
			}
			if !ok {
				t.Fatalf("seed %d step %d: delta bailed on store-shaped input", seed, step)
			}
			want := materializeOracle(t, layers, next)
			if !tree.Equal(got, want) {
				var stack []string
				for _, l := range layers {
					stack = append(stack, l.Query.Update.String("$a"))
				}
				t.Fatalf("seed %d step %d: delta mismatch\n stack: %v\n update: %s\n got  %s\n want %s",
					seed, step, stack, upd.Query.Update.String("$a"), got, want)
			}
			totalReused += stats.ReusedSubtrees
			cur, curIx, memo = next, nextIx, nextMemo
		}
	}
	if totalReused == 0 {
		t.Error("delta path never reused a memoized subtree across the whole property run")
	}
	if segmented == 0 {
		t.Error("no stack had a qualified layer above the first")
	}
}

// TestNewStackValidation: qualified layers are accepted at any depth,
// each qualified layer above the first starting a segment; an empty
// stack and a nil layer are rejected.
func TestNewStackValidation(t *testing.T) {
	qualified, err := core.MustParseQuery(
		`transform copy $a := doc("T") modify do delete $a/site/people/person[age = "1"] return $a`).Compile()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.MustParseQuery(
		`transform copy $a := doc("T") modify do rename $a//person as member return $a`).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		layers   []*core.Compiled
		segments int
	}{
		{[]*core.Compiled{qualified}, 1},
		{[]*core.Compiled{qualified, plain}, 1},
		{[]*core.Compiled{plain, qualified}, 2},
		{[]*core.Compiled{plain, qualified, plain, qualified}, 3},
	} {
		s, err := NewStack(c.layers)
		if err != nil {
			t.Fatalf("NewStack rejected a qualified stack: %v", err)
		}
		segments, layers := 0, 0
		for ; s != nil; s = s.next {
			segments++
			layers += len(s.layers)
		}
		if segments != c.segments || layers != len(c.layers) {
			t.Errorf("%d layers ran in %d segments of %d layers, want %d segments",
				len(c.layers), segments, layers, c.segments)
		}
	}
	if _, err := NewStack(nil); err == nil {
		t.Error("NewStack accepted an empty stack")
	}
	if _, err := NewStack([]*core.Compiled{plain, nil}); err == nil {
		t.Error("NewStack accepted a nil layer")
	}
}

func TestStackDeltaFallsBackOnBadBridge(t *testing.T) {
	doc := tree.NewDocument(tree.NewElement("site", tree.NewElement("item")))
	cur, _, _ := tree.Freeze(doc, nil)
	c, err := core.MustParseQuery(
		`transform copy $a := doc("T") modify do delete $a//item return $a`).Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStack([]*core.Compiled{c})
	if err != nil {
		t.Fatal(err)
	}
	_, memo, _, err := s.Eval(context.Background(), cur)
	if err != nil {
		t.Fatal(err)
	}
	// A bridge of the wrong shape must bail out, not corrupt the result.
	bogus := tree.NewDocument(tree.NewElement("site"))
	other := tree.NewDocument(tree.NewElement("site", tree.NewElement("x"), tree.NewElement("y")))
	if _, _, _, ok, _ := s.EvalDelta(context.Background(), other, bogus, memo); ok {
		t.Error("EvalDelta accepted a bridge of mismatched shape")
	}
	if _, _, _, ok, _ := s.EvalDelta(context.Background(), other, nil, memo); ok {
		t.Error("EvalDelta accepted a nil bridge")
	}
}
