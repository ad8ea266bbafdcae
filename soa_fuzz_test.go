package xtq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xtq/internal/tree"
)

// FuzzSoARoundTrip pins the load-bearing invariants of the persistent
// path-copy snapshots end to end through the public API (it keeps the
// name, signature and seeds it had when snapshots carried a
// structure-of-arrays core, so its corpus carries over):
//
//  1. Round trip: parse → Put into a sealed snapshot → serialize →
//     reparse → serialize again is byte-identical.
//  2. Path copy ≡ Freeze ≡ "copy, then update, then return": after each
//     commit of a fuzz-derived edit sequence the new version's bytes
//     equal a from-scratch tree.Freeze of the same tree and the
//     MethodCopyUpdate evaluation of the same query over a private
//     deep copy of the previous version.
//  3. Immutability: every earlier version still serializes to exactly
//     the bytes it had when it was committed — shared subtrees are
//     never written through.
func FuzzSoARoundTrip(f *testing.F) {
	f.Add("<db><part><pname>kb</pname><price cur=\"usd\">9</price></part></db>", uint8(0), "price")
	f.Add("<a><b>x</b><b>y&amp;z</b><c/></a>", uint8(1), "b")
	f.Add("<r><x a=\"1\"><y/></x>text<x/></r>", uint8(2), "x")
	f.Add("<r>&lt;not-a-tag&gt;</r>", uint8(3), "r")
	f.Add("<db><part><pname>kb</pname></part><part><pname>m</pname></part></db>", uint8(0b00_11_10_01), "part")

	oracle := NewEngine(WithMethod(MethodCopyUpdate))
	f.Fuzz(func(t *testing.T, xml string, op uint8, label string) {
		doc, err := ParseString(xml)
		if err != nil {
			t.Skip()
		}
		canonical := doc.String()

		st := NewStore(nil)
		ctx := context.Background()
		if _, _, err := st.Put(ctx, "d", FromString(xml)); err != nil {
			t.Skip()
		}
		snap, err := st.Snapshot("d")
		if err != nil {
			t.Fatal(err)
		}
		bytesOf := func(s *Snapshot) string {
			var b strings.Builder
			if err := s.WriteXML(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}

		if got := bytesOf(snap); got != canonical {
			t.Fatalf("snapshot serialization %q != canonical %q", got, canonical)
		}
		reparsed, err := ParseString(canonical)
		if err != nil {
			t.Fatalf("snapshot serialization does not reparse: %v", err)
		}
		if reparsed.String() != canonical {
			t.Fatalf("reparse round trip drifted: %q != %q", reparsed.String(), canonical)
		}

		// The edit sequence: four commits, two bits of op each. The label
		// is sanitized into the query grammar; updates that match nothing
		// are still commits (share-everything no-ops).
		lb := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' {
				return r
			}
			return -1
		}, strings.ToLower(label))
		if lb == "" {
			lb = "part"
		}
		type version struct {
			snap *Snapshot
			xml  string
		}
		history := []version{{snap, canonical}}
		for k := 0; k < 4; k++ {
			var q string
			switch (op >> (2 * k)) & 3 {
			case 0:
				q = fmt.Sprintf(`transform copy $a := doc("d") modify do delete $a//%s return $a`, lb)
			case 1:
				q = fmt.Sprintf(`transform copy $a := doc("d") modify do rename $a//%s as zz return $a`, lb)
			case 2:
				q = fmt.Sprintf(`transform copy $a := doc("d") modify do insert <nw>n</nw> into $a//%s return $a`, lb)
			case 3:
				q = fmt.Sprintf(`transform copy $a := doc("d") modify do rename $a//zz as %s return $a`, lb)
			}
			p, err := oracle.Prepare(q)
			if err != nil {
				t.Skip() // label collided with a grammar keyword etc.
			}
			prev := history[len(history)-1]
			want, err := p.Eval(ctx, prev.snap.Root().DeepCopy())
			if err != nil {
				t.Fatal(err)
			}

			next, _, err := st.Apply(ctx, "d", q)
			if err != nil {
				t.Fatal(err)
			}
			got := bytesOf(next)
			if got != want.String() {
				t.Fatalf("commit %d: path copy %q != copy-update %q", k, got, want.String())
			}
			if frozen, _, _ := tree.Freeze(next.Root(), nil); frozen.String() != got {
				t.Fatalf("commit %d: path copy %q != Freeze of the same tree %q", k, got, frozen.String())
			}
			for _, v := range history {
				if bytesOf(v.snap) != v.xml {
					t.Fatalf("commit %d changed version %d: %q != %q", k, v.snap.Version(), bytesOf(v.snap), v.xml)
				}
			}
			history = append(history, version{next, got})
		}
	})
}
