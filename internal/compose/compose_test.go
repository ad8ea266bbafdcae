package compose

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"xtq/internal/core"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

const site = `<site>
<people>
  <person id="person0"><name>Ada</name><profile><age>33</age></profile></person>
  <person id="person10"><name>Bob</name><profile><age>19</age></profile></person>
  <person id="person2"><name>Cyd</name><profile><age>25</age></profile></person>
</people>
<regions>
  <africa><item id="item0"><location>United States</location><quantity>5</quantity><name>chair</name></item></africa>
  <asia><item id="item1"><location>Japan</location><quantity>1</quantity><name>desk</name></item></asia>
</regions>
<open_auctions>
  <open_auction id="open_auction0"><initial>15</initial><reserve>60</reserve>
    <bidder><increase>12</increase></bidder>
    <bidder><increase>3</increase></bidder>
  </open_auction>
  <open_auction id="open_auction2"><initial>5</initial>
    <bidder><increase>20</increase></bidder>
  </open_auction>
</open_auctions>
</site>`

func parseDoc(t *testing.T, s string) *tree.Node {
	t.Helper()
	d, err := sax.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compileT(t *testing.T, src string) *core.Compiled {
	t.Helper()
	c, err := core.MustParseQuery(src).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reference computes Q(Qt(T)) by materializing the transform with the
// copy-and-update baseline.
func reference(t *testing.T, qt *core.Compiled, q *xquery.UserQuery, doc *tree.Node) *tree.Node {
	t.Helper()
	mid, err := qt.Eval(doc, core.MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Eval(mid)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// plan1 builds the single-layer composition plan of qt and q.
func plan1(t *testing.T, qt *core.Compiled, q *xquery.UserQuery) *Plan {
	t.Helper()
	p, err := NewPlan([]*core.Compiled{qt}, q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAll verifies the single-pass Plan.Eval (the Compose Method) and
// Plan.EvalSequential (the Naive Composition Method, transform evaluated
// with topDown) against the reference.
func checkAll(t *testing.T, qtSrc, qSrc, docXML string) *tree.Node {
	t.Helper()
	doc := parseDoc(t, docXML)
	qt := compileT(t, qtSrc)
	q := xquery.MustParse(qSrc)
	want := reference(t, qt, q, doc)
	ctx := context.Background()

	p := plan1(t, qt, q)
	got, _, err := p.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(got, want) {
		t.Fatalf("Compose disagrees with reference:\n Qt: %s\n Q:  %s\n got  %s\n want %s",
			qtSrc, qSrc, got, want)
	}
	ngot, err := p.EvalSequential(ctx, doc, core.MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(ngot, want) {
		t.Fatalf("Naive Composition disagrees with reference:\n got %s\nwant %s", ngot, want)
	}
	return got
}

func TestExample41SecurityView(t *testing.T) {
	// Example 4.1/4.2: the security view deletes suppliers from country
	// 'A'; the user asks for keyboard suppliers.
	const db = `<db>
	  <part><pname>keyboard</pname>
	    <supplier><sname>HP</sname><country>US</country></supplier>
	    <supplier><sname>Spy</sname><country>A</country></supplier>
	  </part>
	  <part><pname>mouse</pname>
	    <supplier><sname>Dell</sname><country>A</country></supplier>
	  </part>
	</db>`
	got := checkAll(t,
		`transform copy $a := doc("foo") modify do delete $a//supplier[country = "A"] return $a`,
		`for $x in /db/part[pname = "keyboard"]/supplier return $x`,
		db)
	root := got.Root()
	if len(root.Children) != 1 {
		t.Fatalf("result = %s", got)
	}
	if tree.CountLabel(root, "sname") != 1 || root.Children[0].Children[0].Value() != "HP" {
		t.Errorf("wrong supplier survived: %s", got)
	}
}

func TestDeleteQualifierQ1(t *testing.T) {
	// Q1/Q1c: delete a/b[q]; user asks a/b/c.
	const docXML = `<a>
	  <b><q/><c>hidden</c></b>
	  <b><c>visible</c></b>
	</a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do delete $r/a/b[q] return $r`,
		`for $x in /a/b/c return $x`,
		docXML)
	if got.Root().Children[0].Value() != "visible" || len(got.Root().Children) != 1 {
		t.Errorf("result = %s", got)
	}
}

func TestDeleteUnconditionalQ2(t *testing.T) {
	// Q2/Q2c: delete a/b/c; user query's qualifier not(./c = 'A') is
	// decided by the deletion.
	const docXML = `<a><b><c>A</c><d>keep</d></b><b><c>B</c></b></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do delete $r/a/b/c return $r`,
		`for $x in /a/b[not(c = "A")] return $x`,
		docXML)
	// After the delete no b has a c child, so both b's qualify.
	if len(got.Root().Children) != 2 {
		t.Errorf("result = %s", got)
	}
	if tree.CountLabel(got, "c") != 0 {
		t.Errorf("c nodes visible through composition: %s", got)
	}
}

func TestInsertQ3(t *testing.T) {
	// Q3/Q3c: insert e into a//c; user asks for a/b (whose subtrees can
	// contain inserted elements → topDown materialization).
	const docXML = `<a><b><c><d/></c></b><b><x/></b></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do insert <e/> into $r/a//c return $r`,
		`for $x in /a/b return $x`,
		docXML)
	if tree.CountLabel(got, "e") != 1 {
		t.Errorf("inserted element not materialized: %s", got)
	}
}

func TestInsertVisibleToNavigation(t *testing.T) {
	// The user query navigates *into* the inserted element.
	const docXML = `<a><b/></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do insert <e><tag>new</tag></e> into $r/a/b return $r`,
		`for $x in /a/b/e/tag return $x`,
		docXML)
	if len(got.Root().Children) != 1 || got.Root().Children[0].Value() != "new" {
		t.Errorf("navigation into inserted element failed: %s", got)
	}
}

func TestInsertCondSeesNewElement(t *testing.T) {
	// The where clause tests a path that only exists after the insert.
	const docXML = `<a><b><old/></b></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do insert <mark>1</mark> into $r/a/b return $r`,
		`for $x in /a/b where $x/mark = "1" return $x/old`,
		docXML)
	if len(got.Root().Children) != 1 {
		t.Errorf("condition missed inserted element: %s", got)
	}
}

func TestReplaceComposition(t *testing.T) {
	const docXML = `<a><b><secret>s</secret></b><b><pub>p</pub></b></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do replace $r/a/b[secret] with <redacted/> return $r`,
		`for $x in /a/* return $x`,
		docXML)
	if tree.CountLabel(got, "redacted") != 1 || tree.CountLabel(got, "secret") != 0 {
		t.Errorf("replace not visible: %s", got)
	}
}

func TestReplaceNavigationIntoConstant(t *testing.T) {
	const docXML = `<a><b><old/></b></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do replace $r/a/b with <nb><inner>i</inner></nb> return $r`,
		`for $x in /a/nb/inner return $x`,
		docXML)
	if len(got.Root().Children) != 1 {
		t.Errorf("navigation into replacement failed: %s", got)
	}
}

func TestRenameComposition(t *testing.T) {
	const docXML = `<a><b><x>1</x></b><c><x>2</x></c></a>`
	got := checkAll(t,
		`transform copy $r := doc("f") modify do rename $r/a/b as c return $r`,
		`for $x in /a/c/x return $x`,
		docXML)
	if len(got.Root().Children) != 2 {
		t.Errorf("rename not visible to navigation: %s", got)
	}
}

func TestPaperPairU9U1Disjoint(t *testing.T) {
	// (U9, U1): delete on regions//item, query on people — largely
	// disjoint; composition must not materialize anything.
	doc := parseDoc(t, site)
	qt := compileT(t, `transform copy $a := doc("f") modify do delete $a/site/regions//item[location = "United States"] return $a`)
	q := xquery.MustParse(`for $x in /site/people/person return $x`)
	got, vs, err := plan1(t, qt, q).Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, qt, q, doc)
	if !tree.Equal(got, want) {
		t.Fatalf("disjoint composition wrong:\n got %s\nwant %s", got, want)
	}
	if vs.Materialized != 0 {
		t.Errorf("disjoint composition materialized %d nodes", vs.Materialized)
	}
}

func TestPaperPairU8U10(t *testing.T) {
	checkAll(t,
		`transform copy $a := doc("f") modify do delete $a/site/open_auctions/open_auction[initial > 10 and reserve > 50]/bidder return $a`,
		`for $x in /site//open_auctions/open_auction[not(@id = "open_auction2")]/bidder[increase > 10] return $x`,
		site)
}

func TestPaperPairU1U2(t *testing.T) {
	got := checkAll(t,
		`transform copy $a := doc("f") modify do insert <watch/> into $a/site/people/person return $a`,
		`for $x in /site/people/person[@id = "person10"] return $x`,
		site)
	if tree.CountLabel(got, "watch") != 1 {
		t.Errorf("inserted element missing from returned person: %s", got)
	}
}

func TestCondOnDeletedPath(t *testing.T) {
	// Where-clause path traverses deleted region: bidders with the
	// deleted increase are invisible.
	checkAll(t,
		`transform copy $a := doc("f") modify do delete $a/site/open_auctions/open_auction/bidder[increase > 10] return $a`,
		`for $x in /site/open_auctions/open_auction where $x/bidder/increase > 2 return $x/@id`,
		site)
}

func TestTemplateReturn(t *testing.T) {
	checkAll(t,
		`transform copy $a := doc("f") modify do delete $a/site/people/person[profile/age > 20] return $a`,
		`for $x in /site/people/person return <who>{$x/name}</who>`,
		site)
}

// Property: Plan.Eval ≡ Plan.EvalSequential ≡ Q(Qt(T)) on random
// documents, random transform paths and random user queries.
func TestComposeAgreesRandom(t *testing.T) {
	ctx := context.Background()
	genOpts := tree.DefaultGenOptions()
	cfg := xpath.DefaultGenConfig()
	elem := tree.NewElement("b", tree.NewText("1"))
	checked := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := tree.Generate(rng, genOpts)
		tp := xpath.RandomPath(rng, cfg)
		u := core.Update{Path: tp}
		switch rng.Intn(4) {
		case 0:
			u.Op = core.Insert
			u.Elem = elem
		case 1:
			u.Op = core.Delete
		case 2:
			u.Op = core.Replace
			u.Elem = elem
		case 3:
			u.Op = core.Rename
			u.Label = "c"
		}
		qt, err := (&core.Query{Var: "a", Doc: "gen", Update: u}).Compile()
		if err != nil {
			continue
		}
		q := &xquery.UserQuery{
			Var:    "x",
			Path:   xpath.RandomPath(rng, cfg),
			Return: &xquery.Hole{},
		}
		if rng.Intn(2) == 0 {
			q.Conds = []xquery.Cond{{
				L:  xquery.Operand{Path: xpath.RandomPath(rng, cfg)},
				Op: xpath.OpEq,
				R:  xquery.Operand{IsConst: true, Const: cfg.Values[rng.Intn(len(cfg.Values))]},
			}}
		}
		if rng.Intn(3) == 0 {
			q.Return = &xquery.Hole{Operand: xquery.Operand{Path: xpath.RandomPath(rng, cfg)}}
		}
		if q.Validate() != nil {
			continue
		}
		p, err := NewPlan([]*core.Compiled{qt}, q)
		if err != nil {
			continue
		}
		checked++
		got, _, err := p.Eval(ctx, d)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mid, err := qt.Eval(d, core.MethodCopyUpdate)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Eval(mid)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(got, want) {
			t.Fatalf("seed %d: compose mismatch\n Qt: %s\n Q: %s\n doc: %s\n got %s\nwant %s",
				seed, u.String("$a"), q, d, got, want)
		}
		ngot, err := p.EvalSequential(ctx, d, core.MethodTopDown)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(ngot, want) {
			t.Fatalf("seed %d: naive composition mismatch", seed)
		}
	}
	if checked < 300 {
		t.Fatalf("only %d/400 random compositions ran", checked)
	}
}

func TestXQueryTextShapes(t *testing.T) {
	// Q1c shape: conditional delete.
	qt := compileT(t, `transform copy $r := doc("f") modify do delete $r/a/b[q] return $r`)
	q := xquery.MustParse(`for $x in /a/b/c return $x`)
	txt := XQueryText(qt, q)
	for _, want := range []string{"for $y1 in /a", "for $y2 in $y1/b", "if empty($y2[q])", "else ( )"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Q1c text missing %q:\n%s", want, txt)
		}
	}
	// Q2c shape: unconditional delete folds the rest away.
	qt2 := compileT(t, `transform copy $r := doc("f") modify do delete $r/a/b/c return $r`)
	q2 := xquery.MustParse(`for $x in /a/b/c/d return $x`)
	txt2 := XQueryText(qt2, q2)
	if !strings.Contains(txt2, "( )") {
		t.Errorf("Q2c text should fold to the empty sequence:\n%s", txt2)
	}
	// Q3c shape: insert with // needs the topDown user function.
	qt3 := compileT(t, `transform copy $r := doc("f") modify do insert <e/> into $r/a//c return $r`)
	q3 := xquery.MustParse(`for $x in /a/b return $x`)
	txt3 := XQueryText(qt3, q3)
	if !strings.Contains(txt3, "topDown(") {
		t.Errorf("Q3c text missing topDown call:\n%s", txt3)
	}
}

// TestNewValidation: a single-layer plan rejects a nil transform, a nil
// or invalid user query, and identifies itself.
func TestNewValidation(t *testing.T) {
	qt := compileT(t, `transform copy $r := doc("f") modify do delete $r/a return $r`)
	if _, err := NewPlan([]*core.Compiled{nil}, nil); err == nil {
		t.Errorf("nil inputs accepted")
	}
	if _, err := NewPlan([]*core.Compiled{qt}, &xquery.UserQuery{}); err == nil {
		t.Errorf("invalid user query accepted")
	}
	p := plan1(t, qt, xquery.MustParse(`for $x in /a return $x`))
	if p.String() == "" {
		t.Errorf("empty String()")
	}
}
