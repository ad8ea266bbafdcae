package automaton

import "testing"

func TestCovered(t *testing.T) {
	cases := []struct {
		name        string
		upd, view   string
		strict      bool
		insertLabel string
		covered     bool
	}{
		// At-or-below: the word itself counts as its own prefix.
		{"same path", "//a", "//a", false, "", true},
		{"below deleted region", "/a/b/c", "/a/b", false, "", true},
		{"descendant under //", "/a//c", "//a", false, "", true},
		{"disjoint labels", "/a/b", "/x", false, "", false},
		{"sibling paths", "/a/b", "/a/c", false, "", false},
		{"update above view", "/a", "/a/b", false, "", false},
		{"wild view covers all", "/a/b", "/*", false, "", true},
		{"wild view absorbs all depths", "//x", "/*", false, "", true}, // every word's depth-1 prefix matches '*'
		{"view double wild", "//x", "//*", false, "", true},
		{"skip via //", "/a//c", "/a/b", false, "", false}, // w = a·c bypasses b

		// Strict: a proper prefix must be accepted.
		{"strict same path", "//a", "//a", true, "", false},
		{"strict below", "/a/b", "/a", true, "", true},
		{"strict at root", "/a", "/*", true, "", false},
		{"strict deep //", "//b", "/a", true, "", false}, // w = b has no proper prefix
		{"strict under //", "/a//b/c", "/a//b", true, "", true},

		// Insert refinement: the word becomes w·label.
		{"insert matched element", "//item", "//secret", false, "secret", true},
		{"insert unmatched element", "//item", "//other", false, "secret", false},
		{"insert under deleted region", "/a/b", "/a", false, "x", true},
		{"insert completes view path", "/a", "/a/x", false, "x", true},
		{"insert misses view path", "/a", "/a/x/y", false, "x", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := mustNFA(t, tc.upd)
			v := mustNFA(t, tc.view)
			covered, ok := Covered(u, v, tc.strict, tc.insertLabel, 0)
			if !ok {
				t.Fatalf("Covered(%s, %s) hit the state cap", tc.upd, tc.view)
			}
			if covered != tc.covered {
				t.Errorf("Covered(%s, %s, strict=%v, insert=%q) = %v, want %v",
					tc.upd, tc.view, tc.strict, tc.insertLabel, covered, tc.covered)
			}
		})
	}
}

func TestCoveredQualifiersIgnored(t *testing.T) {
	// Qualifiers on the update path widen the accepted set; coverage
	// must still hold when the unqualified superset is covered …
	u := mustNFA(t, `/a/b[c = "1"]`)
	v := mustNFA(t, "/a")
	if covered, ok := Covered(u, v, true, "", 0); !ok || !covered {
		t.Errorf("qualified update under deleted parent: covered=%v ok=%v, want true,true", covered, ok)
	}
	// … and must not be claimed when only the qualified subset would be.
	v2 := mustNFA(t, "/a/b")
	if covered, ok := Covered(u, v2, true, "", 0); !ok || covered {
		t.Errorf("strict coverage via the word itself: covered=%v ok=%v, want false,true", covered, ok)
	}
}

func TestCoveredStateCap(t *testing.T) {
	u := mustNFA(t, "//a//b//c")
	v := mustNFA(t, "//x//y//z")
	if _, ok := Covered(u, v, false, "", 1); ok {
		t.Error("cap of 1 product state should report ok=false")
	}
}
