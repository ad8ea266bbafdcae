package sax_test

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"xtq/internal/sax"
	"xtq/internal/store"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

// refXML is the serializer the tree.Emitter replaced — one byte at a
// time, one switch per byte — kept as the oracle of the differential
// tests below. It is deliberately naive; do not use it outside tests.
func refXML(b *bytes.Buffer, n *tree.Node) {
	esc := func(s string, quot bool) {
		for i := 0; i < len(s); i++ {
			switch c := s[i]; {
			case c == '&':
				b.WriteString("&amp;")
			case c == '<':
				b.WriteString("&lt;")
			case c == '>' && !quot:
				b.WriteString("&gt;")
			case c == '"' && quot:
				b.WriteString("&quot;")
			default:
				b.WriteByte(c)
			}
		}
	}
	switch n.Kind {
	case tree.Text:
		esc(n.Data, false)
		return
	case tree.Element:
		b.WriteString("<" + n.Label)
		for _, a := range n.Attrs {
			b.WriteString(" " + a.Name + `="`)
			esc(a.Value, true)
			b.WriteByte('"')
		}
		if len(n.Children) == 0 {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
	}
	for _, c := range n.Children {
		refXML(b, c)
	}
	if n.Kind == tree.Element {
		b.WriteString("</" + n.Label + ">")
	}
}

// serializers are the three entry points that share the emitter: the
// event walk (sax.Emit into a sax.Writer, xtqd's query responses), the
// pointer walk (Node.WriteXML) and a store snapshot frozen from the
// document (Snapshot.WriteXML — GET /docs/{name}, checkpoints, follower
// bootstrap).
type serializer struct {
	name  string
	write func(doc *tree.Node, w io.Writer) error
}

var serializers = []serializer{
	{"sax.Emit", func(doc *tree.Node, w io.Writer) error {
		sw := sax.NewWriter(w)
		if err := sax.Emit(doc, sw); err != nil {
			return err
		}
		return sw.Flush()
	}},
	{"Node.WriteXML", func(doc *tree.Node, w io.Writer) error { return doc.WriteXML(w) }},
	{"Snapshot.WriteXML", func(doc *tree.Node, w io.Writer) error {
		snap, _, err := store.New().Put("d", doc, false)
		if err != nil {
			return err
		}
		return snap.WriteXML(w)
	}},
}

// checkSerializers asserts that every entry point produces exactly the
// reference bytes for doc.
func checkSerializers(t *testing.T, name string, doc *tree.Node) {
	t.Helper()
	var want bytes.Buffer
	refXML(&want, doc)
	for _, s := range serializers {
		var got bytes.Buffer
		if err := s.write(doc, &got); err != nil {
			t.Errorf("%s: %s: %v", name, s.name, err)
			continue
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			i := 0
			for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
				i++
			}
			t.Errorf("%s: %s differs from the reference at byte %d (got %d bytes, want %d)",
				name, s.name, i, got.Len(), want.Len())
		}
	}
}

func elem(label string, attrs []tree.Attr, children ...*tree.Node) *tree.Node {
	e := tree.NewElement(label, children...)
	e.Attrs = attrs
	return e
}

// TestEmitterMatchesReference is the differential test of the emitter:
// XMark documents, both fuzz seed corpora and a table of escaping and
// buffering edge cases, each through all three entry points.
func TestEmitterMatchesReference(t *testing.T) {
	for _, f := range []float64{0.001, 0.01} {
		doc, err := xmark.Generate(xmark.Config{Factor: f, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		checkSerializers(t, "xmark", doc)
	}

	corpus := append([]string{
		// The seeds of FuzzSoARoundTrip (package xtq).
		`<db><part><pname>kb</pname><price cur="usd">9</price></part></db>`,
		`<a><b>x</b><b>y&amp;z</b><c/></a>`,
		`<r><x a="1"><y/></x>text<x/></r>`,
		`<r>&lt;not-a-tag&gt;</r>`,
	}, sax.FuzzParseSeeds...)
	for _, src := range corpus {
		doc, err := sax.ParseString(src)
		if err != nil {
			continue // the FuzzParse corpus holds rejected inputs too
		}
		checkSerializers(t, src, doc)
	}

	// More than one 64 KB buffer of clean text around one special, so the
	// special and its replacement land on and around the spill boundary.
	const buf = 64 << 10
	big := strings.Repeat("0123456789abcdef", 200<<10/16)
	cases := map[string]*tree.Node{
		"text specials":     elem("a", nil, tree.NewText("&"), elem("b", nil), tree.NewText("<"), elem("b", nil), tree.NewText(">")),
		"text runs":         elem("a", nil, tree.NewText(`&&<<>>x&<>y"'&`)),
		"attr specials":     elem("a", []tree.Attr{{Name: "p", Value: "&"}, {Name: "q", Value: "<"}, {Name: "r", Value: `"`}}),
		"attr runs":         elem("a", []tree.Attr{{Name: "p", Value: `""&&<<x"&<y`}}),
		"attr not escaped":  elem("a", []tree.Attr{{Name: "p", Value: `it's > that`}}, tree.NewText(`it's "quoted"`)),
		"empty text":        elem("a", nil, tree.NewText("")),
		"empty attr":        elem("a", []tree.Attr{{Name: "p", Value: ""}}, elem("b", []tree.Attr{{Name: "q", Value: ""}}, tree.NewText("x"))),
		"utf-8":             elem("ü", []tree.Attr{{Name: "名", Value: "søt & 甘い"}}, tree.NewText("𝄞 < ∑ > é")),
		"200 KB text":       elem("a", nil, tree.NewText(big)),
		"200 KB attr":       elem("a", []tree.Attr{{Name: "p", Value: big}}),
		"200 KB then small": elem("a", nil, tree.NewText(big), elem("b", nil, tree.NewText("<tail>"))),
		"bare text node":    tree.NewText("a<b"),
		"empty document":    tree.NewDocument(nil),
	}
	for pad := buf - 8; pad <= buf+4; pad++ {
		// The special (or tag) starts at output offset pad: the sweep
		// covers every alignment of "&amp;" etc. against the boundary.
		at := " at " + strconv.Itoa(pad)
		cases["text special"+at] = elem("a", nil, tree.NewText(big[:pad-len(`<a>`)]+"&"+big[:100]))
		cases["attr special"+at] = elem("a", []tree.Attr{{Name: "p", Value: big[:pad-len(`<a p="`)] + `"` + big[:100]}})
		cases["tag"+at] = elem("a", nil, tree.NewText(big[:pad-len(`<a>`)]), elem("boundary", []tree.Attr{{Name: "k", Value: "v"}}))
	}
	for name, root := range cases {
		checkSerializers(t, name, root)
		if root.Kind == tree.Element {
			checkSerializers(t, name+" (document)", tree.NewDocument(root))
		}
	}
}

// failAfter accepts limit bytes, then fails every Write, counting the
// attempts made after the first failure.
type failAfter struct {
	limit, n   int
	failed     bool
	afterFails int
}

var errSink = errors.New("sink closed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.afterFails++
	}
	if f.n+len(p) > f.limit {
		f.failed = true
		return 0, errSink
	}
	f.n += len(p)
	return len(p), nil
}

// opaque hides the *sax.Writer behind the Handler interface, forcing
// Emit down its generic per-event path.
type opaque struct{ sax.Handler }

// TestSerializersStopAtWriteError: a client that goes away must not cost
// the rest of the walk. Every entry point returns the writer's error and
// attempts at most one further Write after the first failure; on the
// event path the Handler methods themselves report it, so the producer
// (Emit here, the SAX parser in twoPassSAX) unwinds.
func TestSerializersStopAtWriteError(t *testing.T) {
	doc, err := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	all := append(serializers[:len(serializers):len(serializers)], serializer{"sax.Emit (generic Handler)", func(doc *tree.Node, w io.Writer) error {
		sw := sax.NewWriter(w)
		if err := sax.Emit(doc, opaque{sw}); err != nil {
			return err
		}
		return sw.Flush()
	}})
	for _, s := range all {
		for _, limit := range []int{0, 100 << 10} {
			sink := &failAfter{limit: limit}
			if err := s.write(doc, sink); !errors.Is(err, errSink) {
				t.Errorf("%s, limit %d: err = %v, want the sink's error", s.name, limit, err)
			}
			if sink.afterFails > 1 {
				t.Errorf("%s, limit %d: %d writes attempted after the first failure", s.name, limit, sink.afterFails)
			}
		}
	}

	// The event methods report the sticky error themselves.
	sw := sax.NewWriter(&failAfter{})
	big := strings.Repeat("x", 100<<10)
	if err := sw.Text(big); !errors.Is(err, errSink) {
		t.Errorf("Text after a failed spill: err = %v", err)
	}
	if err := sw.StartElement("a", nil); !errors.Is(err, errSink) {
		t.Errorf("StartElement after a failed write: err = %v", err)
	}
	if err := sw.EndElement("a"); !errors.Is(err, errSink) {
		t.Errorf("EndElement after a failed write: err = %v", err)
	}
}

// TestWriterFlushRepeatable: Flush hands the pooled buffer back, so it
// must be callable twice, and a Writer must keep working after it.
func TestWriterFlushRepeatable(t *testing.T) {
	var out bytes.Buffer
	sw := sax.NewWriter(&out)
	if err := sw.Flush(); err != nil { // nothing written yet
		t.Fatal(err)
	}
	sw.StartElement("a", nil)
	sw.Text("1")
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sw.EndElement("a")
	// Emit into a still-open start tag (twoPassSAX inserting into an
	// element it has just opened) closes the tag first.
	sw.StartElement("b", nil)
	if err := sax.Emit(elem("c", nil), sw); err != nil {
		t.Fatal(err)
	}
	sw.EndElement("b")
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "<a>1</a><b><c/></b>"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}
