package xtq

import (
	"context"
	"strings"
	"testing"
)

const partsDoc = `<db>
<part><pname>keyboard</pname>
  <supplier><sname>HP</sname><price>15</price><country>US</country></supplier>
  <supplier><sname>Logi</sname><price>12</price><country>A</country></supplier>
</part>
<part><pname>mouse</pname>
  <supplier><sname>Dell</sname><price>9</price><country>A</country></supplier>
</part>
</db>`

func countLabel(n *Node, label string) int {
	count := 0
	if n.Label == label {
		count++
	}
	for _, c := range n.Children {
		count += countLabel(c, label)
	}
	return count
}

func TestQuickstartFlow(t *testing.T) {
	doc, err := ParseString(partsDoc)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`transform copy $a := doc("parts") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		p, err := NewEngine(WithMethod(m)).PrepareQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		view, err := p.Eval(context.Background(), doc)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if countLabel(view, "price") != 0 {
			t.Errorf("%s: prices remain", m)
		}
	}
	if countLabel(doc, "price") != 3 {
		t.Errorf("source modified")
	}
}

func TestTransformStreamFlow(t *testing.T) {
	eng := NewEngine()
	p, err := eng.Prepare(`transform copy $a := doc("parts") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res, err := p.EvalStream(context.Background(), BytesSource(partsDoc), ToWriter(&sb))
	if err != nil {
		t.Fatal(err)
	}
	if res.First.MaxStackDepth == 0 {
		t.Errorf("no stats: %+v", res)
	}
	out, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if countLabel(out, "price") != 0 {
		t.Errorf("prices remain in stream output")
	}
	if _, err := eng.PrepareQuery(&Query{}); err == nil {
		t.Errorf("invalid query accepted")
	}
}

func TestComposeFlow(t *testing.T) {
	ctx := context.Background()
	doc, err := ParseString(partsDoc)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	view, err := eng.View(`transform copy $a := doc("parts") modify do delete $a//supplier[country = "A"] return $a`)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := view.Prepare(`for $x in /db/part/supplier return $x/sname`)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pv.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pv.EvalSequential(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("compose %s != naive %s", got, want)
	}
	if countLabel(got, "sname") != 1 {
		t.Errorf("expected only the HP supplier, got %s", got)
	}
	if _, err := eng.View(`transform nonsense`); err == nil {
		t.Errorf("invalid transform accepted")
	}
	if _, err := view.Prepare(`for broken`); err == nil {
		t.Errorf("invalid user query accepted")
	}
}

func TestParseFileAndXMark(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.xml"
	n, err := WriteXMarkFile(XMarkConfig{Factor: 0.001, Seed: 1}, path)
	if err != nil || n == 0 {
		t.Fatalf("WriteXMarkFile: %d, %v", n, err)
	}
	doc, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Label != "site" {
		t.Errorf("root = %q", doc.Root().Label)
	}
	mem, err := GenerateXMark(XMarkConfig{Factor: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mem.Root().Label != "site" {
		t.Errorf("in-memory root = %q", mem.Root().Label)
	}
	if _, err := ParseFile(path + ".missing"); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestParsePath(t *testing.T) {
	p, err := ParsePath(`/site/people/person[@id = "person10"]`)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() == "" {
		t.Errorf("empty path rendering")
	}
	if _, err := ParsePath("a["); err == nil {
		t.Errorf("bad path accepted")
	}
}
