package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xtq/internal/tree"
	"xtq/internal/xerr"
	"xtq/internal/xpath"
)

func TestParseQueryForms(t *testing.T) {
	cases := []struct {
		src  string
		op   Op
		path string
	}{
		{
			`transform copy $a := doc("foo") modify do delete $a//price return $a`,
			Delete, "//price",
		},
		{
			`transform copy $x := doc('bar') modify do insert <e/> into $x/db/part return $x`,
			Insert, "db/part",
		},
		{
			`transform copy $a := doc("f") modify do replace $a//part[pname = "kb"] with <part><pname>kb2</pname></part> return $a`,
			Replace, `//part[pname = "kb"]`,
		},
		{
			`transform copy $a := doc("f") modify do rename $a//subPart as component return $a`,
			Rename, "//subPart",
		},
		{
			// Whitespace and newlines are insignificant.
			"transform copy $a := doc(\"f\")\n  modify\n  do delete $a//supplier[country = \"A\"]/price\n  return $a",
			Delete, `//supplier[country = "A"]/price`,
		},
	}
	for _, tc := range cases {
		q, err := ParseQuery(tc.src)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", tc.src, err)
			continue
		}
		if q.Update.Op != tc.op {
			t.Errorf("%q: op = %s, want %s", tc.src, q.Update.Op, tc.op)
		}
		if got := q.Update.Path.String(); got != tc.path {
			t.Errorf("%q: path = %q, want %q", tc.src, got, tc.path)
		}
		// Rendering re-parses to the same query.
		q2, err := ParseQuery(q.String())
		if err != nil {
			t.Errorf("reparse of %q: %v", q.String(), err)
			continue
		}
		if q2.String() != q.String() {
			t.Errorf("render not fixpoint: %q vs %q", q.String(), q2.String())
		}
	}
}

func TestParseQueryElemWithKeywordText(t *testing.T) {
	// The constant element may contain the keywords as text.
	q, err := ParseQuery(`transform copy $a := doc("f") modify do insert <note>go into the return </note> into $a//part return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Update.Elem.Value() != "go into the return " {
		t.Errorf("element text = %q", q.Update.Elem.Value())
	}
}

func TestParseQueryElemNested(t *testing.T) {
	q, err := ParseQuery(`transform copy $a := doc("f") modify do insert <s a="1"><b><c/></b><b>t</b></s> into $a/db return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Update.Elem.CountElements() != 4 {
		t.Errorf("element = %s", q.Update.Elem)
	}
}

func TestParseQueryPathWithQuotedKeyword(t *testing.T) {
	q, err := ParseQuery(`transform copy $a := doc("f") modify do delete $a//part[pname = "into x"] return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.Update.Path.String(), "into x") {
		t.Errorf("path = %s", q.Update.Path)
	}
}

func TestParseQueryErrors(t *testing.T) {
	cases := []string{
		``,
		`transform`,
		`transform copy a := doc("f") modify do delete $a/x return $a`,
		`transform copy $a = doc("f") modify do delete $a/x return $a`,
		`transform copy $a := doc(f) modify do delete $a/x return $a`,
		`transform copy $a := doc("f" modify do delete $a/x return $a`,
		`transform copy $a := doc("f) modify do delete $a/x return $a`,
		`transform copy $a := doc("f") do delete $a/x return $a`,
		`transform copy $a := doc("f") modify delete $a/x return $a`,
		`transform copy $a := doc("f") modify do destroy $a/x return $a`,
		`transform copy $a := doc("f") modify do delete $b/x return $a`,
		`transform copy $a := doc("f") modify do delete $a/x return $b`,
		`transform copy $a := doc("f") modify do delete $a/x return $a junk`,
		`transform copy $a := doc("f") modify do delete $a return $a`,
		`transform copy $a := doc("f") modify do delete $a/x[ return $a`,
		`transform copy $a := doc("f") modify do insert into $a/x return $a`,
		`transform copy $a := doc("f") modify do insert <e> into $a/x return $a`,
		`transform copy $a := doc("f") modify do insert <e/> $a/x return $a`,
		`transform copy $a := doc("f") modify do replace $a/x with return $a`,
		`transform copy $a := doc("f") modify do rename $a/x as return $a`,
		`transform copy $a := doc("f") modify do rename $a/x return $a`,
		`transform copy $ := doc("f") modify do delete $/x return $`,
		`transform copy $a := doc("f") modify do delete $a/@id return $a`,
	}
	for _, src := range cases {
		if q, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery accepted %q as %s", src, q)
		}
	}
}

func TestMustParseQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseQuery("nope")
}

func TestUpdateValidate(t *testing.T) {
	p := xpath.MustParse("a/b")
	bad := []Update{
		{Op: Insert, Path: p},                             // missing elem
		{Op: Insert, Path: p, Elem: tree.NewText("x")},    // not an element
		{Op: Insert, Path: p, Elem: tree.NewElement("")},  // invalid element
		{Op: Replace, Path: p},                            // missing elem
		{Op: Rename, Path: p},                             // missing label
		{Op: Delete, Path: p, Label: "x"},                 // extraneous label
		{Op: Delete, Path: p, Elem: tree.NewElement("e")}, // extraneous elem
		{Op: Delete},         // no path
		{Op: Op(9), Path: p}, // bad op
		{Op: Delete, Path: &xpath.Path{Steps: []xpath.Step{{Axis: xpath.Attribute, Label: "id"}}}},
	}
	for i, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, u)
		}
	}
	good := Update{Op: Delete, Path: p}
	if err := good.Validate(); err != nil {
		t.Errorf("valid update rejected: %v", err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{Insert: "insert", Delete: "delete", Replace: "replace", Rename: "rename", Op(9): "invalid"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d) = %q, want %q", op, got, want)
		}
	}
}

func TestUpdateStringForms(t *testing.T) {
	p := xpath.MustParse("db/part")
	e := tree.NewElement("e")
	cases := map[string]Update{
		"insert <e/> into $a/db/part":  {Op: Insert, Path: p, Elem: e},
		"delete $a/db/part":            {Op: Delete, Path: p},
		"replace $a/db/part with <e/>": {Op: Replace, Path: p, Elem: e},
		"rename $a/db/part as z":       {Op: Rename, Path: p, Label: "z"},
	}
	for want, u := range cases {
		if got := u.String("$a"); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	badOp := Update{Op: Op(9), Path: p}
	if got := badOp.String("$a"); got != "invalid" {
		t.Errorf("invalid op String = %q", got)
	}
}

// TestApplyRequiresValid: an update that fails validation is rejected,
// typed, and the copy-and-update baseline refuses it before mutating
// anything.
func TestApplyRequiresValid(t *testing.T) {
	d := tree.NewDocument(tree.NewElement("db"))
	before := d.String()
	u := Update{Op: Insert, Path: xpath.MustParse("db")}
	var xe *xerr.Error
	if err := u.Validate(); !errors.As(err, &xe) || xe.Kind != xerr.Compile {
		t.Fatalf("Validate(insert without element) = %v, want *xerr.Error kind compile", err)
	}
	c := &Compiled{Query: &Query{Var: "a", Doc: "d", Update: u}}
	out, err := EvalCopyUpdate(context.Background(), c, d)
	if !errors.As(err, &xe) || xe.Kind != xerr.Compile || out != nil {
		t.Fatalf("EvalCopyUpdate(invalid) = %v, %v; want nil and a compile error", out, err)
	}
	if d.String() != before {
		t.Fatal("a rejected update changed the input")
	}
}

func TestCompileRejectsBadPaths(t *testing.T) {
	for _, src := range []string{
		`transform copy $a := doc("f") modify do delete $a/. return $a`,
	} {
		q, err := ParseQuery(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if _, err := q.Compile(); err == nil {
			t.Errorf("Compile accepted %q", src)
		}
	}
	q := &Query{Update: Update{Op: Delete, Path: xpath.MustParse("a")}}
	if _, err := q.Compile(); err == nil {
		t.Errorf("Compile accepted query without variable")
	}
}
