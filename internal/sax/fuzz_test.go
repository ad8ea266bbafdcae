package sax

import (
	"bytes"
	"strings"
	"testing"

	"xtq/internal/tree"
)

// FuzzParseSeeds is the seed corpus of FuzzParse, exported (this is a
// _test file) so the emitter differential test in package sax_test can
// replay it against the reference serializer.
var FuzzParseSeeds = []string{
	`<a/>`,
	`<db><part><pname>keyboard</pname><supplier sid="s1">HP</supplier></part></db>`,
	`<a attr="v&amp;w">x&lt;y&#65;</a>`,
	`<a><!-- comment --><![CDATA[<raw>&stuff;]]>tail</a>`,
	`<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a>`,
	`<a>` + strings.Repeat("<b>", 30) + strings.Repeat("</b>", 30) + `</a>`,
	`<a b="c" d='e'><f/></a>`,
	`<a>&#x1F600;</a>`,
	`<a>]]></a>`,
	`<mismatch></wrong>`,
	`<unterminated`,
}

// FuzzParse asserts three properties on arbitrary input:
//
//   - the parser never panics — it either builds a tree or reports a
//     *ParseError / IO error;
//   - accepted documents round-trip: serializing the tree and reparsing
//     the output yields a structurally identical tree (the Writer escapes
//     everything the Parser can produce);
//   - the MaxDepth option is an invariant, not a hint: any accepted
//     document respects the configured nesting limit.
func FuzzParse(f *testing.F) {
	for _, s := range FuzzParseSeeds {
		f.Add([]byte(s))
	}
	const maxDepth = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		var b TreeBuilder
		p := NewParserOptions(bytes.NewReader(data), &b, Options{MaxDepth: maxDepth})
		if err := p.Parse(); err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		doc := b.Document()
		if doc.Depth() > maxDepth+1 { // +1: the document node itself
			t.Fatalf("accepted document exceeds MaxDepth %d: depth %d", maxDepth, doc.Depth())
		}
		if err := tree.Validate(doc); err != nil {
			t.Fatalf("accepted document fails validation: %v", err)
		}
		var out bytes.Buffer
		w := NewWriter(&out)
		if err := Emit(doc, w); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		doc2, err := Parse(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\noutput: %q", err, out.Bytes())
		}
		if !tree.Equal(doc, doc2) {
			t.Fatalf("round-trip mismatch:\nfirst:  %s\nsecond: %s", doc, doc2)
		}
	})
}
