package xtq

import (
	"context"
	"strings"
	"testing"

	"xtq/internal/obs"
	"xtq/internal/queries"
)

// TestPlannerProperty pins the method rule: an Auto engine evaluates
// every query with guided top-down and its trace says so, plan section
// included. Besides the XMark workload U1–U10, the cases are the shapes
// a cost model once sent to copyupdate, which ran them 2.9–1 270× slower:
// a '//' qualifier over a 2 000-deep recursive document, and a chain of
// '//' steps.
func TestPlannerProperty(t *testing.T) {
	xmark, err := GenerateXMark(XMarkConfig{Factor: 0.001, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := ParseString(strings.Repeat("<a><b>x</b>", 2000) + strings.Repeat("</a>", 2000))
	if err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		name  string
		query string
		doc   *Node
	}
	cases := []tcase{
		{"deep //a[.//b]", `transform copy $a := doc("d") modify do delete $a//a[.//b = "x"] return $a`, deep},
		{"xmark //*//*//*//*", `transform copy $a := doc("d") modify do delete $a//*//*//*//* return $a`, xmark},
	}
	for i := 1; i <= 10; i++ {
		cases = append(cases, tcase{queries.Names()[i-1], queries.Transform(i).String(), xmark})
	}

	eng := NewEngine(WithMethod(MethodAuto))
	for _, tc := range cases {
		tr := obs.NewTrace()
		ctx := obs.WithTrace(context.Background(), tr)
		p, err := eng.PrepareContext(ctx, tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Eval(ctx, tc.doc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tr.Method(); got != string(MethodTopDown) {
			t.Errorf("%s: auto ran %q, want topdown", tc.name, got)
		}
		if pt := tr.Plan(); pt == nil || !pt.Auto || pt.Method != tr.Method() || pt.Reason == "" {
			t.Errorf("%s: plan section %+v does not report the decision", tc.name, pt)
		}
	}
}
