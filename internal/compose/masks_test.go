package compose

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xtq/internal/core"
	"xtq/internal/tree"
	"xtq/internal/xquery"
)

// maskDoc is the document most mask cases read: the l under c is the only
// one, so the subtree masks of a and d lack l.
const maskDoc = `<db><a><b/><b><e>7</e></b></a><c><l><m/></l></c><d>t</d></db>`

// maskedCopy copies doc into a version chain of its own and builds the
// chain's label masks.
func maskedCopy(doc *tree.Node) *tree.Node {
	root, ix, _ := tree.Freeze(doc, nil)
	ix.BuildMasks()
	return root
}

// maskedChain parses xml into a version chain with its label masks.
func maskedChain(t *testing.T, xml string) *tree.Node {
	t.Helper()
	return maskedCopy(parseDoc(t, xml))
}

// manyLabels returns a document with more than 64 distinct labels, so
// their bits collide in the masks: db holds g0..g39, each with one x<i>
// child, and only g3 holds a deeper y.
func manyLabels() string {
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "<g%d><x%d/>", i, i)
		if i == 3 {
			b.WriteString("<y>deep</y>")
		}
		fmt.Fprintf(&b, "</g%d>", i)
	}
	b.WriteString("</db>")
	return b.String()
}

// foreignChain is a view chain (tree.StampChain) holding a subtree of
// another masked chain: the shared subtree's labels are ids of the other
// table, so every mask above it has every bit set.
func foreignChain(t *testing.T) *tree.Node {
	other := maskedChain(t, `<o><only><l><deep>x</deep></l></only><a/></o>`)
	d := tree.NewDocument(tree.NewElement("db",
		tree.NewElement("a", tree.NewElement("b")),
		tree.NewElement("wrap", other.Children[0]),
	))
	ix := tree.StampChain(d)
	if ix == nil || !ix.BuildMasks() {
		t.Fatal("the view chain could not build its masks")
	}
	return d
}

// commit applies a transform to a chain version and path-copies its
// result into the chain's next version, as the store commits.
func commit(t *testing.T, root *tree.Node, src string) *tree.Node {
	t.Helper()
	out, err := compileT(t, src).Eval(root, core.MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	next, _, _ := tree.PathCopy(out, tree.IndexOf(root))
	return next
}

// afterCommit is a chain masked at its first version, read at its
// second: a commit inserted an l under a b, so the spine from the
// document node down to that l is past the masks' table, above subtrees
// that stay masked.
func afterCommit(t *testing.T) *tree.Node {
	return commit(t, maskedChain(t, maskDoc), `transform copy $a := doc("d") modify do insert <l>new</l> into $a/db/a/b[e] return $a`)
}

// timeTravel is the first version of a chain whose masks were built from
// its second, which deleted c and with it the only l: every node of the
// first version the second replaced or dropped is a hole in the masks.
func timeTravel(t *testing.T) *tree.Node {
	root, _, _ := tree.Freeze(parseDoc(t, maskDoc), nil)
	next := commit(t, root, `transform copy $a := doc("d") modify do delete $a/db/c return $a`)
	if !tree.IndexOf(next).BuildMasks() {
		t.Fatal("the chain already had masks")
	}
	return root
}

func tq(update string) string {
	return `transform copy $a := doc("d") modify do ` + update + ` return $a`
}

// TestComposedReadsWithLabelMasks: composed reads that the label masks
// could wrongly prune, each checked against EvalSequential over the
// plain tree and over a chain with its masks built; the masked walks
// visit fewer nodes overall.
func TestComposedReadsWithLabelMasks(t *testing.T) {
	cases := []struct {
		name   string
		layers []string
		user   string
		masked func(t *testing.T) *tree.Node // nil: maskedChain(maskDoc)
		xml    string                        // the document when masked is nil; "" is maskDoc
	}{
		{name: "insert brings l below a", layers: []string{tq(`insert <l>i</l> into $a//b`)}, user: `//l`},
		{name: "nested insert constant", layers: []string{tq(`insert <k><l>i</l></k> into $a/db/a`)}, user: `//l`},
		{name: "replace with l", layers: []string{tq(`replace $a//e with <l>r</l>`)}, user: `//l`},
		{name: "rename to the queried label", layers: []string{tq(`rename $a//e as l`)}, user: `//l`},
		{name: "upper layer reads a lower rename", layers: []string{tq(`rename $a//e as l`), tq(`delete $a/db/c/l`)}, user: `//l`},
		{name: "lower insert, upper rename", layers: []string{tq(`insert <k>i</k> into $a/db/d`), tq(`rename $a//k as l`)}, user: `//l`},
		{name: "matched rename materialized", layers: []string{tq(`rename $a//b as l`)}, user: `/db/a`},
		{name: "matched insert materialized", layers: []string{tq(`insert <k/> into $a//b`)}, user: `/db/a`},
		{name: "qualifier witness", layers: []string{tq(`insert <l>9</l> into $a//b`)}, user: `/db/*[b//l = "9"]`},
		{name: "qualifier witness of a rename", layers: []string{tq(`rename $a//e as l`)}, user: `/db/*[b//l]`},
		{name: "rename to a label absent from the table", layers: []string{tq(`rename $a//e as zz`)}, user: `//zz`},
		{name: "insert of a label absent from the table", layers: []string{tq(`insert <zz/> into $a/db/d`)}, user: `//zz`},
		{name: "query of a label absent from the table", layers: []string{tq(`delete $a//e`)}, user: `//nowhere`},
		{name: "more than 64 labels", layers: []string{tq(`rename $a//x5 as y`)}, user: `//y`, xml: manyLabels()},
		{name: "more than 64 labels, insert", layers: []string{tq(`insert <x39/> into $a/db/g1`)}, user: `/db/*[.//x39]`, xml: manyLabels()},
		{name: "foreign subtree", layers: []string{tq(`rename $a//b as deep`)}, user: `//deep`, masked: foreignChain},
		{name: "foreign subtree, l", layers: []string{tq(`delete $a//a`)}, user: `//l`, masked: foreignChain},
		{name: "version after a commit", layers: []string{tq(`rename $a//m as q`)}, user: `//l`, masked: afterCommit},
		{name: "time travel below newer masks", layers: []string{tq(`rename $a//m as q`)}, user: `//l`, masked: timeTravel},
	}
	ctx := context.Background()
	var visits [2]int
	for _, tc := range cases {
		layers := make([]*core.Compiled, len(tc.layers))
		for i, src := range tc.layers {
			layers[i] = compileT(t, src)
		}
		p, err := NewPlan(layers, xquery.MustParse(`for $x in `+tc.user+` return $x`))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		xml := tc.xml
		if xml == "" {
			xml = maskDoc
		}
		var masked *tree.Node
		if tc.masked != nil {
			masked = tc.masked(t)
			xml = masked.String()
		} else {
			masked = maskedChain(t, xml)
		}
		var got [2]string
		for j, doc := range []*tree.Node{parseDoc(t, xml), masked} {
			res, stats, err := p.Eval(ctx, doc)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want, err := p.EvalSequential(ctx, doc, core.MethodCopyUpdate)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !tree.Equal(res, want) {
				t.Errorf("%s (masks: %v):\n got  %s\n want %s", tc.name, j == 1, res, want)
			}
			got[j] = res.String()
			visits[j] += stats.NodesVisited
		}
		if got[0] != got[1] {
			t.Errorf("%s: the masked read differs from the plain one", tc.name)
		}
	}
	if visits[1] >= visits[0] {
		t.Errorf("masked reads visit %d nodes, plain ones %d: the masks prune nothing", visits[1], visits[0])
	}
}
