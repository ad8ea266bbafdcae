package compose

import (
	"context"
	"strings"
	"testing"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/tree"
	"xtq/internal/xmark"
	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

// planOf compiles a stack of transform sources and a user query source.
func planOf(t *testing.T, qSrc string, qtSrcs ...string) *Plan {
	t.Helper()
	layers := make([]*core.Compiled, len(qtSrcs))
	for i, src := range qtSrcs {
		layers[i] = compileT(t, src)
	}
	p, err := NewPlan(layers, xquery.MustParse(qSrc))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkStack verifies Plan.Eval against sequentially materializing every
// layer (the oracle) and returns the single-pass result and its stats.
func checkStack(t *testing.T, docXML, qSrc string, qtSrcs ...string) (*tree.Node, ViewStats) {
	t.Helper()
	doc := parseDoc(t, docXML)
	p := planOf(t, qSrc, qtSrcs...)
	got, vs, err := p.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalSequential(context.Background(), doc, core.MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(got, want) {
		t.Fatalf("stacked Eval disagrees with sequential oracle:\n stack: %v\n user: %s\n got  %s\n want %s",
			qtSrcs, qSrc, got, want)
	}
	return got, vs
}

func TestStackRenameThenNavigateNewLabel(t *testing.T) {
	// Layer 1 renames b to c; layer 2 deletes c/x — the second layer's
	// automaton must consume the *renamed* label.
	got, _ := checkStack(t, `<a><b><x>1</x><y>2</y></b></a>`,
		`for $u in /a/c return $u`,
		`transform copy $a := doc("d") modify do rename $a/a/b as c return $a`,
		`transform copy $a := doc("d") modify do delete $a/a/c/x return $a`)
	root := got.Root()
	if len(root.Children) != 1 || root.Children[0].Label != "c" {
		t.Fatalf("rename invisible through stack: %s", got)
	}
	if tree.CountLabel(root, "x") != 0 || tree.CountLabel(root, "y") != 1 {
		t.Errorf("second layer did not act on renamed view: %s", got)
	}
}

func TestStackInsertThenDeleteInserted(t *testing.T) {
	// Layer 1 inserts <flag/>; layer 2 deletes //flag: the stack is a
	// no-op on flags, and the user query must not see any.
	got, _ := checkStack(t, `<a><b/><b/></a>`,
		`for $u in /a/b return $u`,
		`transform copy $a := doc("d") modify do insert <flag/> into $a/a/b return $a`,
		`transform copy $a := doc("d") modify do delete $a//flag return $a`)
	if tree.CountLabel(got, "flag") != 0 {
		t.Errorf("flag survived insert-then-delete stack: %s", got)
	}
}

func TestStackInsertThenQualifierOnInserted(t *testing.T) {
	// Layer 2's qualifier tests a child that only exists in layer 1's
	// output.
	checkStack(t, `<a><b><v>1</v></b><b><v>2</v></b></a>`,
		`for $u in /a/b return $u`,
		`transform copy $a := doc("d") modify do insert <mark>hot</mark> into $a/a/b[v = "1"] return $a`,
		`transform copy $a := doc("d") modify do delete $a/a/b[mark = "hot"]/v return $a`)
}

func TestStackReplaceThenTransformReplacement(t *testing.T) {
	// Layer 1 replaces b with a constant element; layer 2 inserts into
	// the replacement's subtree — constant elements are first-class
	// nodes for the layers above.
	got, _ := checkStack(t, `<a><b><old/></b></a>`,
		`for $u in /a/nb return $u`,
		`transform copy $a := doc("d") modify do replace $a/a/b with <nb><inner/></nb> return $a`,
		`transform copy $a := doc("d") modify do insert <tag/> into $a/a/nb/inner return $a`)
	if tree.CountLabel(got, "tag") != 1 || tree.CountLabel(got, "old") != 0 {
		t.Errorf("layer 2 did not transform layer 1's constant element: %s", got)
	}
}

func TestStackInsertIntoInserted(t *testing.T) {
	// Layer 2 inserts into the element layer 1 inserted; navigation
	// descends through both constant elements.
	got, _ := checkStack(t, `<a><b/></a>`,
		`for $u in /a/b/e/tag return $u`,
		`transform copy $a := doc("d") modify do insert <e/> into $a/a/b return $a`,
		`transform copy $a := doc("d") modify do insert <tag>v</tag> into $a/a/b/e return $a`)
	root := got.Root()
	if len(root.Children) != 1 || root.Children[0].Value() != "v" {
		t.Fatalf("nested constant-element navigation failed: %s", got)
	}
}

func TestStackSameTransformTwice(t *testing.T) {
	// The same compiled query stacked twice: both inserted copies share
	// one *tree.Node, so virtual-node identity must tell the two
	// occurrences apart (distinct origins).
	doc := parseDoc(t, `<a><b/></a>`)
	qt := compileT(t, `transform copy $a := doc("d") modify do insert <e/> into $a/a/b return $a`)
	p, err := NewPlan([]*core.Compiled{qt, qt}, xquery.MustParse(`for $u in /a/b//e return $u`))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalSequential(context.Background(), doc, core.MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(got, want) {
		t.Fatalf("same-transform-twice stack:\n got  %s\n want %s", got, want)
	}
	if n := len(got.Root().Children); n != 2 {
		t.Fatalf("expected both inserted copies, got %d: %s", n, got)
	}
}

func TestStackThreeLayers(t *testing.T) {
	// Security view over virtual update over hypothetical state: insert
	// a marker, rename marked region, delete sensitive children of the
	// renamed region.
	checkStack(t, `<db><part><price>9</price><name>kb</name></part><part><name>m</name></part></db>`,
		`for $u in /db/audited return <row>{$u/name}{$u/price}{$u/note}</row>`,
		`transform copy $a := doc("d") modify do insert <note>checked</note> into $a/db/part[price] return $a`,
		`transform copy $a := doc("d") modify do rename $a/db/part[note = "checked"] as audited return $a`,
		`transform copy $a := doc("d") modify do delete $a/db/audited/price return $a`)
}

func TestStackWhereClauseAcrossLayers(t *testing.T) {
	// The where clause reads a value whose path exists only through the
	// combined effect of two layers.
	checkStack(t, `<a><p><q>5</q></p><p><q>50</q></p></a>`,
		`for $u in /a/p where $u/m/v = "yes" return $u/q`,
		`transform copy $a := doc("d") modify do insert <m><v>yes</v></m> into $a/a/p[q > 10] return $a`,
		`transform copy $a := doc("d") modify do delete $a/a/p/m[v = "no"] return $a`)
}

func TestStackDisjointMaterializesNothing(t *testing.T) {
	doc := parseDoc(t, site)
	p := planOf(t, `for $x in /site/people/person return $x`,
		`transform copy $a := doc("d") modify do delete $a/site/regions//item return $a`,
		`transform copy $a := doc("d") modify do rename $a/site/closed_auctions as archive return $a`)
	got, vs, err := p.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalSequential(context.Background(), doc, core.MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(got, want) {
		t.Fatalf("disjoint stack mismatch:\n got  %s\n want %s", got, want)
	}
	if vs.Materialized != 0 {
		t.Errorf("disjoint stack materialized %d nodes", vs.Materialized)
	}
	for i, ls := range vs.Layers {
		if ls.Materialized != 0 {
			t.Errorf("layer %d materialized %d nodes in a disjoint stack", i, ls.Materialized)
		}
	}
}

func TestStackPerLayerStats(t *testing.T) {
	doc := parseDoc(t, site)
	p := planOf(t, `for $x in /site/people/person return $x`,
		`transform copy $a := doc("d") modify do insert <watch/> into $a/site/people/person return $a`,
		`transform copy $a := doc("d") modify do delete $a/site/people/person/profile return $a`)
	_, vs, err := p.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Layers) != 2 {
		t.Fatalf("Layers = %d, want 2", len(vs.Layers))
	}
	for i, ls := range vs.Layers {
		if ls.NodesVisited == 0 {
			t.Errorf("layer %d visited no nodes", i)
		}
		if ls.Materialized == 0 {
			t.Errorf("layer %d materialized nothing despite rewriting returned subtrees", i)
		}
	}
	if vs.NodesVisited == 0 || vs.Materialized == 0 {
		t.Errorf("empty totals: %+v", vs.Stats)
	}
}

// TestStatsAreValueSnapshots guards the plan/run split: two sequential
// evaluations of one Plan must return independent stats, not accumulate
// state on the plan.
func TestStatsAreValueSnapshots(t *testing.T) {
	doc := parseDoc(t, site)
	p := planOf(t, `for $x in /site/people/person return $x`,
		`transform copy $a := doc("d") modify do insert <watch/> into $a/site/people/person return $a`)
	_, first, err := p.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := p.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if first.NodesVisited != second.NodesVisited || first.Materialized != second.Materialized {
		t.Errorf("stats accumulated across runs: first %+v second %+v", first.Stats, second.Stats)
	}
}

// stackPlan compiles one stacked-view workload into a composition plan.
func stackPlan(t *testing.T, s queries.Stack) *Plan {
	t.Helper()
	layers := make([]*core.Compiled, len(s.Layers))
	for i, q := range s.Layers {
		c, err := q.Compile()
		if err != nil {
			t.Fatal(err)
		}
		layers[i] = c
	}
	p, err := NewPlan(layers, s.User)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// intermediateSize sequentially materializes every layer of the plan and
// returns the total node count of the intermediate (and final) views —
// the trees the naive method builds and the single-pass method avoids.
func intermediateSize(t *testing.T, p *Plan, doc *tree.Node) int {
	t.Helper()
	total := 0
	cur := doc
	for i := 0; i < p.NumLayers(); i++ {
		var err error
		cur, err = p.Layer(i).EvalContext(context.Background(), cur, core.MethodTopDown)
		if err != nil {
			t.Fatal(err)
		}
		total += cur.Size()
	}
	return total
}

// TestStackedViewMaterializesLessThanIntermediates pins the stacked-view
// acceptance claim: a 2+-layer stack evaluates in a single pass, with
// the run's Materialized count staying below the total size of the
// intermediate views the sequential method builds — and with results
// identical to sequential materialization.
func TestStackedViewMaterializesLessThanIntermediates(t *testing.T) {
	ctx := context.Background()
	doc, err := xmark.Generate(xmark.Config{Factor: 0.004, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range queries.Stacks() {
		p := stackPlan(t, s)
		if p.NumLayers() < 2 {
			t.Fatalf("%s: stack has %d layers, want 2+", s.Name, p.NumLayers())
		}
		got, vs, err := p.Eval(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.EvalSequential(ctx, doc, core.MethodTopDown)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(got, want) {
			t.Errorf("%s: single pass disagrees with sequential materialization", s.Name)
		}
		if inter := intermediateSize(t, p, doc); vs.Materialized >= inter {
			t.Errorf("%s: Materialized = %d, not below intermediate size %d",
				s.Name, vs.Materialized, inter)
		}
		for i, ls := range vs.Layers {
			if ls.NodesVisited == 0 {
				t.Errorf("%s: layer %d reports no visited nodes", s.Name, i)
			}
		}
	}
}

func TestPlanValidation(t *testing.T) {
	qt := compileT(t, `transform copy $a := doc("d") modify do delete $a/a return $a`)
	q := xquery.MustParse(`for $x in /a return $x`)
	if _, err := NewPlan(nil, q); err == nil {
		t.Errorf("empty stack accepted")
	}
	if _, err := NewPlan([]*core.Compiled{qt, nil}, q); err == nil {
		t.Errorf("nil layer accepted")
	}
	if _, err := NewPlan([]*core.Compiled{qt}, nil); err == nil {
		t.Errorf("nil user query accepted")
	}
	if _, err := NewPlan([]*core.Compiled{qt}, &xquery.UserQuery{}); err == nil {
		t.Errorf("invalid user query accepted")
	}
	p, err := NewPlan([]*core.Compiled{qt}, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumLayers() != 1 || p.Layer(0) != qt || p.User() != q {
		t.Errorf("accessors disagree with construction")
	}
	if !strings.Contains(p.String(), "view(") {
		t.Errorf("String() = %q", p.String())
	}
}

func TestPlanEvalPreCancelled(t *testing.T) {
	doc := parseDoc(t, `<a><b/></a>`)
	p := planOf(t, `for $x in /a/b return $x`,
		`transform copy $a := doc("d") modify do delete $a/a/b return $a`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.Eval(ctx, doc); err == nil {
		t.Errorf("pre-cancelled context accepted")
	}
	if _, err := p.EvalSequential(ctx, doc, core.MethodTopDown); err == nil {
		t.Errorf("pre-cancelled context accepted by EvalSequential")
	}
}

func TestSplitAttrTail(t *testing.T) {
	cases := []struct {
		path  string
		steps int
		attr  string
	}{
		{"a/b/@id", 2, "id"},
		{"@id", 0, "id"},
		{"a/b", 2, ""},
		{"a", 1, ""},
	}
	for _, tc := range cases {
		p := xpath.MustParse(tc.path)
		steps, attr := splitAttrTail(p)
		if len(steps) != tc.steps || attr != tc.attr {
			t.Errorf("splitAttrTail(%q) = (%d steps, %q), want (%d, %q)",
				tc.path, len(steps), attr, tc.steps, tc.attr)
		}
	}
	if steps, attr := splitAttrTail(nil); steps != nil || attr != "" {
		t.Errorf("splitAttrTail(nil) = (%v, %q)", steps, attr)
	}
}
