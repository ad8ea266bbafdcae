package compose

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/xmark"
	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

// randomComposition couples a document, a compilable transform query and a
// valid user query.
type randomComposition struct {
	Doc  *tree.Node
	Qt   *core.Compiled
	User *xquery.UserQuery
}

// Generate implements quick.Generator.
func (randomComposition) Generate(r *rand.Rand, _ int) reflect.Value {
	doc := tree.Generate(r, tree.DefaultGenOptions())
	cfg := xpath.DefaultGenConfig()
	var qt *core.Compiled
	for {
		u := core.Update{Path: xpath.RandomPath(r, cfg)}
		switch r.Intn(4) {
		case 0:
			u.Op = core.Insert
			u.Elem = tree.NewElement("b", tree.NewText("1"))
		case 1:
			u.Op = core.Delete
		case 2:
			u.Op = core.Replace
			u.Elem = tree.NewElement("part")
		case 3:
			u.Op = core.Rename
			u.Label = "c"
		}
		c, err := (&core.Query{Var: "a", Doc: "gen", Update: u}).Compile()
		if err == nil {
			qt = c
			break
		}
	}
	var user *xquery.UserQuery
	for {
		user = &xquery.UserQuery{Var: "x", Path: xpath.RandomPath(r, cfg), Return: &xquery.Hole{}}
		if r.Intn(2) == 0 {
			user.Conds = []xquery.Cond{{
				L:  xquery.Operand{Path: xpath.RandomPath(r, cfg)},
				Op: []xpath.CmpOp{xpath.OpEq, xpath.OpNe, xpath.OpLt, xpath.OpGt}[r.Intn(4)],
				R:  xquery.Operand{IsConst: true, Const: cfg.Values[r.Intn(len(cfg.Values))]},
			}}
		}
		if r.Intn(3) == 0 {
			user.Return = &xquery.Hole{Operand: xquery.Operand{Path: xpath.RandomPath(r, cfg)}}
		}
		if user.Validate() == nil {
			break
		}
	}
	return reflect.ValueOf(randomComposition{Doc: doc, Qt: qt, User: user})
}

// Property: the Compose Method, the Naive Composition and the literal
// Q(Qt(T)) reference agree on arbitrary inputs.
func TestQuickCompositionEquivalence(t *testing.T) {
	ctx := context.Background()
	prop := func(tc randomComposition) bool {
		p, err := NewPlan([]*core.Compiled{tc.Qt}, tc.User)
		if err != nil {
			return false
		}
		got, _, err := p.Eval(ctx, tc.Doc)
		if err != nil {
			return false
		}
		mid, err := tc.Qt.Eval(tc.Doc, core.MethodCopyUpdate)
		if err != nil {
			return false
		}
		want, err := tc.User.Eval(mid)
		if err != nil {
			return false
		}
		if !tree.Equal(got, want) {
			return false
		}
		ngot, err := p.EvalSequential(ctx, tc.Doc, core.MethodTopDown)
		if err != nil {
			return false
		}
		return tree.Equal(ngot, want)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// xmarkGenConfig drives the random path generator with XMark's
// vocabulary, so random stacks and user queries have non-trivial
// selectivity on generated XMark documents.
func xmarkGenConfig() xpath.GenConfig {
	return xpath.GenConfig{
		Labels: []string{
			"site", "regions", "africa", "asia", "item", "location",
			"quantity", "name", "people", "person", "profile", "age",
			"interest", "open_auctions", "open_auction", "initial",
			"reserve", "bidder", "increase", "mark",
		},
		Attrs:    []string{"id", "category"},
		Values:   []string{"1", "10", "United States", "Japan", "yes"},
		MaxSteps: 4,
		MaxQual:  2,
	}
}

// randomUpdate draws one embedded update covering all four kinds. The
// constant elements reuse vocabulary labels, so later layers and user
// queries can reach into them.
func randomUpdate(r *rand.Rand, cfg xpath.GenConfig) core.Update {
	u := core.Update{Path: xpath.RandomPath(r, cfg)}
	switch r.Intn(4) {
	case 0:
		u.Op = core.Insert
		u.Elem = tree.NewElement("mark", tree.NewElement("name", tree.NewText("yes")))
	case 1:
		u.Op = core.Delete
	case 2:
		u.Op = core.Replace
		u.Elem = tree.NewElement("item", tree.NewText("redacted"))
	case 3:
		u.Op = core.Rename
		u.Label = cfg.Labels[r.Intn(len(cfg.Labels))]
	}
	return u
}

// Property: for randomized XMark configs and 2-3-layer view stacks over
// all four update kinds, the single-pass Plan.Eval agrees with
// sequentially materializing each transform and then running the user
// query (the Naive Composition oracle, generalized to stacks).
func TestQuickStackEquivalenceXMark(t *testing.T) {
	cfg := xmarkGenConfig()
	checked := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		doc, err := xmark.Generate(xmark.Config{
			Factor: 0.0005 + rng.Float64()*0.002,
			Seed:   rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		depth := 2 + rng.Intn(2)
		layers := make([]*core.Compiled, 0, depth)
		for len(layers) < depth {
			c, err := (&core.Query{Var: "a", Doc: "gen", Update: randomUpdate(rng, cfg)}).Compile()
			if err != nil {
				continue
			}
			layers = append(layers, c)
		}
		user := &xquery.UserQuery{Var: "x", Path: xpath.RandomPath(rng, cfg), Return: &xquery.Hole{}}
		if rng.Intn(2) == 0 {
			user.Conds = []xquery.Cond{{
				L:  xquery.Operand{Path: xpath.RandomPath(rng, cfg)},
				Op: []xpath.CmpOp{xpath.OpEq, xpath.OpNe, xpath.OpLt, xpath.OpGt}[rng.Intn(4)],
				R:  xquery.Operand{IsConst: true, Const: cfg.Values[rng.Intn(len(cfg.Values))]},
			}}
		}
		if rng.Intn(3) == 0 {
			user.Return = &xquery.Hole{Operand: xquery.Operand{Path: xpath.RandomPath(rng, cfg)}}
		}
		if user.Validate() != nil {
			continue
		}
		p, err := NewPlan(layers, user)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		got, _, err := p.Eval(context.Background(), doc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := p.EvalSequential(context.Background(), doc, core.MethodCopyUpdate)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !tree.Equal(got, want) {
			var stack []string
			for _, l := range layers {
				stack = append(stack, l.Query.Update.String("$a"))
			}
			t.Fatalf("seed %d: stack mismatch\n stack: %v\n user: %s\n got  %s\n want %s",
				seed, stack, user, got, want)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d/60 random stacks ran", checked)
	}
}

// Property: composing with a transform whose path is disjoint from the
// user query's navigation never materializes nodes.
func TestQuickDisjointNoMaterialization(t *testing.T) {
	prop := func(tc randomComposition) bool {
		// Force a transform on a label absent from the generator
		// vocabulary: guaranteed disjoint.
		qt, err := (&core.Query{Var: "a", Doc: "gen", Update: core.Update{
			Op:   core.Delete,
			Path: xpath.MustParse("nowhere/never"),
		}}).Compile()
		if err != nil {
			return false
		}
		p, err := NewPlan([]*core.Compiled{qt}, tc.User)
		if err != nil {
			return false
		}
		_, vs, err := p.Eval(context.Background(), tc.Doc)
		if err != nil {
			return false
		}
		return vs.Materialized == 0
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
