package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xpath"
)

func mustBottomUp(t *testing.T, c *Compiled, d *tree.Node) *Annotations {
	t.Helper()
	ann, err := EvalBottomUp(context.Background(), c, d)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

const fig1 = `<db>
<part><pname>keyboard</pname>
  <supplier><sname>HP</sname><price>15</price><country>US</country></supplier>
  <supplier><sname>Logi</sname><price>12</price><country>A</country></supplier>
  <subPart><part><pname>key</pname>
    <supplier><sname>Acme</sname><price>20</price><country>CN</country></supplier>
  </part></subPart>
</part>
<part><pname>mouse</pname>
  <supplier><sname>Dell</sname><price>9</price><country>A</country></supplier>
</part>
</db>`

func doc(t *testing.T) *tree.Node {
	t.Helper()
	d, err := sax.ParseString(fig1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compile(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := MustParseQuery(src).Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", src, err)
	}
	return c
}

func evalAllMethods(t *testing.T, c *Compiled, d *tree.Node) map[Method]*tree.Node {
	t.Helper()
	out := make(map[Method]*tree.Node)
	for _, m := range Methods() {
		before := d.String()
		r, err := c.Eval(d, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if d.String() != before {
			t.Fatalf("%s: evaluation modified the input document", m)
		}
		out[m] = r
	}
	return out
}

func assertAllEqual(t *testing.T, results map[Method]*tree.Node) *tree.Node {
	t.Helper()
	ref := results[MethodCopyUpdate]
	for m, r := range results {
		if !tree.Equal(ref, r) {
			t.Fatalf("method %s disagrees:\ncopyupdate: %s\n%s: %s", m, ref, m, r)
		}
	}
	return ref
}

func TestDeletePrice(t *testing.T) {
	// The introduction's motivating query: delete $a//price.
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//price return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if got := tree.CountLabel(ref, "price"); got != 0 {
		t.Errorf("result still has %d price elements", got)
	}
	if got := tree.CountLabel(ref, "supplier"); got != 4 {
		t.Errorf("suppliers damaged: %d", got)
	}
	if got := tree.CountLabel(d, "price"); got != 4 {
		t.Errorf("source lost price elements: %d", got)
	}
}

func TestSecurityViewDelete(t *testing.T) {
	// Example 1.1: delete //supplier[country='c1' or country='c2']/price.
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//supplier[country = "A" or country = "CN"]/price return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if got := tree.CountLabel(ref, "price"); got != 1 {
		t.Errorf("result has %d price elements, want 1 (only the US supplier's)", got)
	}
}

func TestInsertExample32(t *testing.T) {
	// Example 3.2: insert a supplier under selected parts.
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do insert <supplier><sname>HP</sname></supplier> into $a//part[pname = "keyboard"]//part[not(supplier/sname = "HP") and not(supplier/price < 15)] return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	// Only the inner "key" part matches (Acme at 20 ≥ 15, not HP).
	if got := tree.CountLabel(ref, "supplier"); got != 5 {
		t.Errorf("suppliers = %d, want 5", got)
	}
	inner := xpath.Select(ref, xpath.MustParse("//part[pname = \"key\"]"))
	if len(inner) != 1 {
		t.Fatalf("inner part missing")
	}
	last := inner[0].Children[len(inner[0].Children)-1]
	if last.Label != "supplier" || tree.CountLabel(last, "sname") != 1 {
		t.Errorf("inserted element not last child: %s", last)
	}
}

func TestReplace(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do replace $a//supplier[price > 10]/price with <price>0</price> return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	zeros := xpath.Select(ref, xpath.MustParse(`//price[. = "0"]`))
	if len(zeros) != 3 {
		t.Errorf("replaced %d prices, want 3 (15, 12 and 20)", len(zeros))
	}
	if got := tree.CountLabel(ref, "price"); got != 4 {
		t.Errorf("price count changed: %d", got)
	}
}

func TestRename(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do rename $a//subPart as componentOf return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if tree.CountLabel(ref, "subPart") != 0 || tree.CountLabel(ref, "componentOf") != 1 {
		t.Errorf("rename failed: %s", ref)
	}
}

func TestNestedDelete(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//part return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if tree.CountLabel(ref, "part") != 0 {
		t.Errorf("parts remain: %s", ref)
	}
	if ref.Root() == nil || ref.Root().Label != "db" {
		t.Errorf("root damaged: %s", ref)
	}
}

func TestNestedInsert(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do insert <tag/> into $a//part return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if got := tree.CountLabel(ref, "tag"); got != 3 {
		t.Errorf("inserted %d tags, want 3 (every part, nested included)", got)
	}
}

func TestNestedReplaceOutermostWins(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do replace $a//part with <gone/> return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if got := tree.CountLabel(ref, "gone"); got != 2 {
		t.Errorf("gone = %d, want 2 (outermost parts only)", got)
	}
	if tree.CountLabel(ref, "part") != 0 {
		t.Errorf("parts remain")
	}
}

func TestDeleteRootElement(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a/db return $a`)
	ref := assertAllEqual(t, evalAllMethods(t, c, d))
	if ref.Root() != nil {
		t.Errorf("document should be empty, got %s", ref)
	}
}

func TestNoMatchIsIdentity(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//nosuch return $a`)
	results := evalAllMethods(t, c, d)
	ref := assertAllEqual(t, results)
	if !tree.Equal(ref, d) {
		t.Errorf("no-match transform should be identity")
	}
	// topDown should return the document itself (full sharing).
	if results[MethodTopDown] != d {
		t.Errorf("topDown should share the unchanged document")
	}
}

func TestStructuralSharing(t *testing.T) {
	// topDown shares untouched subtrees; copy-update shares nothing.
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a/db/part[pname = "mouse"] return $a`)
	results := evalAllMethods(t, c, d)
	assertAllEqual(t, results)
	td := results[MethodTopDown]
	if shared := tree.SharedNodes(d, td); shared == 0 {
		t.Errorf("topDown result shares no nodes with input")
	}
	cu := results[MethodCopyUpdate]
	if shared := tree.SharedNodes(d, cu); shared != 0 {
		t.Errorf("copy-update result shares %d nodes with input", shared)
	}
	// The keyboard part (untouched) must be shared by pointer.
	kb := xpath.Select(d, xpath.MustParse(`db/part[pname = "keyboard"]`))[0]
	kbOut := xpath.Select(td, xpath.MustParse(`db/part[pname = "keyboard"]`))[0]
	if kb != kbOut {
		t.Errorf("untouched subtree was copied by topDown")
	}
}

// TestTopDownSharesFrozenConstant: every match of an insert or replace,
// in every evaluation, links the Compiled's one frozen constant; indexing
// a result leaves the constant with its own index, and the constant the
// query was parsed with is never linked or stamped.
func TestTopDownSharesFrozenConstant(t *testing.T) {
	d := doc(t)
	for _, src := range []string{
		`transform copy $a := doc("foo") modify do insert <audit><by>x</by></audit> into $a//supplier return $a`,
		`transform copy $a := doc("foo") modify do replace $a//price with <audit><by>x</by></audit> return $a`,
	} {
		c := compile(t, src)
		var links []*tree.Node
		for i := 0; i < 2; i++ {
			res, err := c.Eval(d, MethodTopDown)
			if err != nil {
				t.Fatal(err)
			}
			stack := []*tree.Node{res}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if n.Label == "audit" {
					links = append(links, n)
				}
				stack = append(stack, n.Children...)
			}
			if tree.EnsureIndex(res).Contains(c.elem) {
				t.Fatalf("%s: a result index claimed the constant", src)
			}
		}
		if len(links) != 8 {
			t.Fatalf("%s: %d constants linked over two evaluations, want 8", src, len(links))
		}
		for _, n := range links {
			if n != c.elem {
				t.Fatalf("%s: a match got a copy of the constant, not the frozen node", src)
			}
		}
		if tree.IndexOf(c.elem) == nil || tree.IndexOf(c.Query.Update.Elem) != nil {
			t.Fatalf("%s: the frozen constant heads no index, or the parsed one was stamped", src)
		}
	}
}

func TestBottomUpPruning(t *testing.T) {
	d := doc(t)
	// supplier//part reaches no state from the root (Example 5.3): the
	// pass must stop after the root's children.
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a/supplier//part return $a`)
	ann := mustBottomUp(t, c, d)
	if ann.NodesVisited > 1 {
		t.Errorf("bottomUp visited %d nodes, want 1 (just the root, then prune)", ann.NodesVisited)
	}
	// A selective path prunes the mouse part's subtree below depth 2.
	c2 := compile(t, `transform copy $a := doc("foo") modify do delete $a/db/part[pname = "keyboard"]/supplier[country = "US"] return $a`)
	ann2 := mustBottomUp(t, c2, d)
	total := d.CountElements()
	if ann2.NodesVisited >= total {
		t.Errorf("bottomUp visited all %d elements; pruning ineffective", ann2.NodesVisited)
	}
}

func TestTwoPassNoFallbacks(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//part[not(supplier/sname = "HP") and not(supplier/price < 15)] return $a`)
	ann := mustBottomUp(t, c, d)
	checker := &AnnotChecker{Ann: ann}
	got, err := EvalTopDown(context.Background(), c, d, checker)
	if err != nil {
		t.Fatal(err)
	}
	if checker.Fallbacks != 0 {
		t.Errorf("annotation checker fell back to direct evaluation %d times", checker.Fallbacks)
	}
	want, err := EvalTopDown(context.Background(), c, d, DirectChecker{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(got, want) {
		t.Errorf("twoPass result differs from direct topDown")
	}
}

// Property: all four in-memory methods agree on random documents × random
// updates, and never mutate the input.
func TestMethodsAgreeRandom(t *testing.T) {
	genOpts := tree.DefaultGenOptions()
	cfg := xpath.DefaultGenConfig()
	elems := []*tree.Node{
		tree.NewElement("new", tree.NewText("v")),
		tree.NewElement("supplier", tree.NewElement("sname", tree.NewText("HP"))),
	}
	checked := 0
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := tree.Generate(rng, genOpts)
		p := xpath.RandomPath(rng, cfg)
		u := Update{Path: p}
		switch rng.Intn(4) {
		case 0:
			u.Op = Insert
			u.Elem = elems[rng.Intn(len(elems))]
		case 1:
			u.Op = Delete
		case 2:
			u.Op = Replace
			u.Elem = elems[rng.Intn(len(elems))]
		case 3:
			u.Op = Rename
			u.Label = "renamed"
		}
		q := &Query{Var: "a", Doc: "gen", Update: u}
		c, err := q.Compile()
		if err != nil {
			continue
		}
		checked++
		results := make(map[Method]*tree.Node)
		for _, m := range Methods() {
			r, err := c.Eval(d, m)
			if err != nil {
				t.Fatalf("seed %d %s %s: %v", seed, m, q, err)
			}
			results[m] = r
		}
		ref := results[MethodCopyUpdate]
		for m, r := range results {
			if !tree.Equal(ref, r) {
				t.Fatalf("seed %d: %s disagrees on %s\ndoc: %s\ncopyupdate: %s\n%s: %s",
					seed, m, q.Update.String("$a"), d, ref, m, r)
			}
		}
		if err := tree.Validate(ref); err != nil && u.Op != Delete {
			// Delete of the root element may legitimately empty the doc.
			t.Fatalf("seed %d: invalid result: %v", seed, err)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d/250 random updates compiled", checked)
	}
}

// Property: twoPass never needs the annotation fallback on random inputs.
func TestTwoPassNoFallbacksRandom(t *testing.T) {
	genOpts := tree.DefaultGenOptions()
	cfg := xpath.DefaultGenConfig()
	for seed := int64(500); seed < 650; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := tree.Generate(rng, genOpts)
		p := xpath.RandomPath(rng, cfg)
		q := &Query{Var: "a", Doc: "gen", Update: Update{Op: Delete, Path: p}}
		c, err := q.Compile()
		if err != nil {
			continue
		}
		ann := mustBottomUp(t, c, d)
		checker := &AnnotChecker{Ann: ann}
		if _, err := EvalTopDown(context.Background(), c, d, checker); err != nil {
			t.Fatal(err)
		}
		if checker.Fallbacks != 0 {
			t.Fatalf("seed %d: %d fallbacks for %s", seed, checker.Fallbacks, p)
		}
	}
}

func TestEvalUnknownMethod(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//price return $a`)
	if _, err := c.Eval(d, Method("bogus")); err == nil {
		t.Errorf("unknown method accepted")
	}
}

func TestQueryEvalConvenience(t *testing.T) {
	d := doc(t)
	q := MustParseQuery(`transform copy $a := doc("foo") modify do delete $a//price return $a`)
	r, err := q.Eval(d, MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if tree.CountLabel(r, "price") != 0 {
		t.Errorf("prices remain")
	}
	bad := &Query{Var: "a", Update: Update{Op: Delete, Path: xpath.MustParse(".")}}
	if _, err := bad.Eval(d, MethodTopDown); err == nil {
		t.Errorf("uncompilable query accepted")
	}
}

func TestNaiveQuadraticShape(t *testing.T) {
	// Sanity check of the membership-scan behaviour: broad scope means
	// |$xp| grows with the document.
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 200; i++ {
		b.WriteString("<part><pname>p</pname></part>")
	}
	b.WriteString("</db>")
	d, err := sax.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	c := compile(t, `transform copy $a := doc("x") modify do insert <t/> into $a//part return $a`)
	results := evalAllMethods(t, c, d)
	ref := assertAllEqual(t, results)
	if got := tree.CountLabel(ref, "t"); got != 200 {
		t.Errorf("inserted %d, want 200", got)
	}
}

// TestSharedSubtreeReindexSafety pins the ownership discipline of the
// node index: topDown results share subtrees with their input, and
// indexing a result must leave those nodes stamped by the input
// document's index (a stamp is written once, never overwritten). The
// input keeps its full index; the result's index does not cover the
// shared subtrees, and every evaluator over it takes its slow path
// there instead of reading another document's ordinals.
func TestSharedSubtreeReindexSafety(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//supplier[country = "A"]/price return $a`)
	want := assertAllEqual(t, evalAllMethods(t, c, d))

	// Produce a sharing result and index it.
	r1, err := c.Eval(d, MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if tree.SharedNodes(d, r1) == 0 {
		t.Fatal("precondition: result shares no nodes with input")
	}
	tree.EnsureIndex(r1)

	// The input document still owns every one of its nodes.
	dix := tree.IndexOf(d)
	if dix == nil {
		t.Fatal("input document lost its index")
	}
	if got, all := ownedNodes(dix, d), d.Size(); got != all {
		t.Fatalf("input index owns %d of its %d nodes after indexing a sharing result", got, all)
	}

	after := evalAllMethods(t, c, d)
	assertAllEqual(t, after)
	if !tree.Equal(after[MethodTwoPass], want) {
		t.Fatal("results changed after a sharing tree was indexed")
	}

	// Evaluating over the indexed result works too.
	r2, err := c.Eval(r1, MethodTwoPass)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Eval(r1.DeepCopy(), MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(r2, ref) {
		t.Fatal("evaluation over indexed result diverges")
	}

	// The sharper variant: deleting the document's first-interned label
	// shifts the result's interning order, so the shared nodes' Sym
	// fields and the result's table disagree ("a" gets "x"'s old id in
	// the result's table). Trusting raw Sym values against the wrong
	// binding would then false-match and delete <a>.
	d2, err := sax.ParseString(`<root><x/><a/><b/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	c2 := compile(t, `transform copy $a := doc("foo") modify do delete $a/root/x return $a`)
	first, err := c2.Eval(d2, MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	tree.EnsureIndex(first) // covers the new spine only; <a>, <b> stay d2's
	for _, m := range Methods() {
		again, err := c2.Eval(d2, m)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(again, first) {
			t.Fatalf("%s after indexing the result: got %s, want %s", m, again, first)
		}
		again, err = c2.Eval(first, m)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(again, first) {
			t.Fatalf("%s over the indexed result: got %s, want %s", m, again, first)
		}
	}
}

// ownedNodes counts the nodes under root that ix reports as members.
func ownedNodes(ix *tree.Index, root *tree.Node) int {
	n := 0
	stack := []*tree.Node{root}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ix.Contains(x) {
			n++
		}
		stack = append(stack, x.Children...)
	}
	return n
}

// TestConcurrentEvalWhileIndexingSharingTree: goroutines evaluate a
// parsed document with twoPass while another goroutine keeps indexing
// new trees that wrap a topDown result sharing the document's subtrees.
// Indexing never restamps the shared nodes, so the readers neither race
// (run under -race) nor fall back, and every result equals the
// copy-and-update oracle.
func TestConcurrentEvalWhileIndexingSharingTree(t *testing.T) {
	d := doc(t)
	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//part[not(supplier/sname = "HP") and not(supplier/price < 15)] return $a`)
	want, err := c.Eval(d.DeepCopy(), MethodCopyUpdate)
	if err != nil {
		t.Fatal(err)
	}
	share := compile(t, `transform copy $a := doc("foo") modify do rename $a/db/part[pname = "mouse"] as item return $a`)

	const readers, rounds = 4, 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, readers+1)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < rounds; j++ {
				got, err := c.Eval(d, MethodTwoPass)
				if err != nil {
					errs <- err
					return
				}
				if !tree.Equal(got, want) {
					errs <- fmt.Errorf("round %d: twopass result %s, want %s", j, got, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for j := 0; j < rounds; j++ {
			r, err := EvalTopDown(context.Background(), share, d, DirectChecker{})
			if err != nil {
				errs <- err
				return
			}
			tree.EnsureIndex(tree.NewDocument(tree.NewElement("wrap", r.Children...)))
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, all := ownedNodes(tree.IndexOf(d), d), d.Size(); got != all {
		t.Fatalf("document index owns %d of its %d nodes", got, all)
	}
}

// TestEvalOverSealedSharingTree pins that all methods still agree when
// evaluating a tree that shares subtrees with a sealed snapshot: the
// sharing nodes stay owned by the snapshot (no stealing), so the
// evaluators must take their slow paths there instead of reading foreign
// ordinals.
func TestEvalOverSealedSharingTree(t *testing.T) {
	d := doc(t)
	snapRoot, _, _ := tree.Freeze(d, nil)

	c := compile(t, `transform copy $a := doc("foo") modify do delete $a//supplier[country = "A"]/price return $a`)
	shared, err := c.Eval(snapRoot, MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if tree.SharedNodes(snapRoot, shared) == 0 {
		t.Fatal("precondition: no structural sharing")
	}

	// Evaluate a second query over the sharing tree with every method;
	// EnsureIndex(shared) skips the sealed subtrees, so OrdOf misses
	// there and the slow paths must carry the evaluation.
	c2 := compile(t, `transform copy $a := doc("foo") modify do rename $a//supplier[country = "US"] as vendor return $a`)
	results := evalAllMethods(t, c2, shared)
	assertAllEqual(t, results)

	// The snapshot still owns every one of its nodes.
	ix := tree.IndexOf(snapRoot)
	if ix == nil {
		t.Fatal("snapshot index lost")
	}
	if count := ownedNodes(ix, snapRoot); count != ix.NumNodes {
		t.Fatalf("snapshot owns %d of %d nodes after sharing-tree evaluation", count, ix.NumNodes)
	}
}
