package compose

import (
	"strings"
	"testing"

	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

func TestXQueryTextMoreShapes(t *testing.T) {
	// Replace/rename annotations at the matched step.
	qt := compileT(t, `transform copy $r := doc("f") modify do replace $r/a/b with <nb/> return $r`)
	if txt := XQueryText(qt, xquery.MustParse(`for $x in /a/b/c return $x`)); !strings.Contains(txt, "replace applies") {
		t.Errorf("replace annotation missing:\n%s", txt)
	}
	qt2 := compileT(t, `transform copy $r := doc("f") modify do rename $r/a/b as z return $r`)
	if txt := XQueryText(qt2, xquery.MustParse(`for $x in /a/b return $x`)); !strings.Contains(txt, "rename applies") {
		t.Errorf("rename annotation missing:\n%s", txt)
	}
	// Pending (non-final) qualified states produce the state comment.
	qt3 := compileT(t, `transform copy $r := doc("f") modify do delete $r/a[q]/b/c return $r`)
	if txt := XQueryText(qt3, xquery.MustParse(`for $x in /a/b return $x`)); !strings.Contains(txt, "pending on") {
		t.Errorf("pending-state comment missing:\n%s", txt)
	}
	// Wildcard and '//' steps in the user path drive δ′.
	qt4 := compileT(t, `transform copy $r := doc("f") modify do insert <e/> into $r/a/b return $r`)
	if txt := XQueryText(qt4, xquery.MustParse(`for $x in //*[q] return $x`)); !strings.Contains(txt, "topDown(") {
		t.Errorf("wildcard//desc composition should materialize via topDown:\n%s", txt)
	}
	// Template return and where clause render through the printer.
	txt := XQueryText(qt4, xquery.MustParse(`for $x in /a/b where $x/c = "1" return <t>{$x/c}</t>`))
	for _, want := range []string{"where", `<t>`, "insert reaches its target"} {
		if !strings.Contains(txt, want) {
			t.Errorf("missing %q in:\n%s", want, txt)
		}
	}
	// Disjoint user query: bare return without topDown.
	if txt := XQueryText(qt4, xquery.MustParse(`for $x in /zzz/yyy return $x`)); strings.Contains(txt, "topDown(") {
		t.Errorf("disjoint composition should not materialize:\n%s", txt)
	}
}

func TestDeltaPrimeSelf(t *testing.T) {
	qt := compileT(t, `transform copy $r := doc("f") modify do delete $r/a//b return $r`)
	s := qt.NFA.InitialSet()
	out := deltaPrime(qt.NFA, s, xpath.Step{Axis: xpath.Self})
	if !out.Equal(s) {
		t.Errorf("δ′ on a self step must not move the state set")
	}
}
