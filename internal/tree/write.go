package tree

import (
	"io"
	"strings"
	"sync"
)

// Open serializes the subtree rooted at n and returns it as a reader,
// making *Node satisfy the facade's Source interface: an in-memory tree
// can feed the streaming evaluator (which parses its source twice) just
// like a file or byte slice. Each call serializes afresh, so the reads
// are independent as Source requires.
func (n *Node) Open() (io.ReadCloser, error) {
	return io.NopCloser(strings.NewReader(n.String())), nil
}

// emitBufSize bounds one spill to the io.Writer; a single string that is
// larger is written through.
const emitBufSize = 64 << 10

var emitBufs = sync.Pool{New: func() any { return new([emitBufSize]byte) }}

// Emitter is the one XML byte sink of the repository: every serializer
// (Node.WriteXML/String/WriteIndented, Index.WriteXML, sax.Writer)
// appends to its buffer and shares its two escape tables. The buffer is
// pooled: taken on the first write, returned by Flush (or left to the GC).
// The first write error is sticky: output is dropped, walks stop at it.
type Emitter struct {
	w   io.Writer
	buf []byte // cap emitBufSize; nil before the first write and after Flush
	err error
}

// NewEmitter returns an Emitter writing to w.
func NewEmitter(w io.Writer) Emitter { return Emitter{w: w} }

// Err returns the first error the underlying writer reported.
func (e *Emitter) Err() error { return e.err }

// Flush writes buffered output through, returns the buffer to the pool
// and reports the sticky error. It may be called any number of times.
func (e *Emitter) Flush() error {
	if e.buf != nil {
		e.spill()
		emitBufs.Put((*[emitBufSize]byte)(e.buf[:emitBufSize]))
		e.buf = nil
	}
	return e.err
}

// spill empties the buffer into the writer, or drops it after an error.
func (e *Emitter) spill() {
	if len(e.buf) > 0 && e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// Raw appends s unescaped. The fast path stays small enough to inline.
func (e *Emitter) Raw(s string) {
	if len(s) > cap(e.buf)-len(e.buf) {
		e.rawSlow(s)
		return
	}
	e.buf = append(e.buf, s...)
}

// rawSlow handles a string the buffer has no room for: it spills (taking
// a buffer first if e holds none) and writes s through if it cannot fit.
func (e *Emitter) rawSlow(s string) {
	if e.buf == nil {
		e.buf = emitBufs.Get().(*[emitBufSize]byte)[:0]
	}
	e.spill()
	if len(s) <= emitBufSize {
		e.buf = append(e.buf, s...)
	} else if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

// Escape tables: the class of each byte, 0 for bytes copied as they are.
var (
	textEsc = [256]uint8{'&': 1, '<': 2, '>': 3}
	attrEsc = [256]uint8{'&': 1, '<': 2, '"': 4}
	escaped = [...]string{1: "&amp;", 2: "&lt;", 3: "&gt;", 4: "&quot;"}
)

// escape appends s, replacing the bytes esc marks and copying the clean
// runs between them whole.
func (e *Emitter) escape(s string, esc *[256]uint8) {
	from := 0
	for i := 0; i < len(s); i++ {
		if k := esc[s[i]]; k != 0 {
			e.Raw(s[from:i])
			e.Raw(escaped[k])
			from = i + 1
		}
	}
	e.Raw(s[from:])
}

// Text appends s with the character-data escapes (& < >) applied.
func (e *Emitter) Text(s string) { e.escape(s, &textEsc) }

// StartTag appends `<name a="v"…` (values escaped for double quotes:
// & < ") and leaves the tag open for Raw(">") or, childless, Raw("/>").
func (e *Emitter) StartTag(name string, attrs []Attr) {
	e.Raw("<")
	e.Raw(name)
	for _, a := range attrs {
		e.Raw(" ")
		e.Raw(a.Name)
		e.Raw(`="`)
		e.escape(a.Value, &attrEsc)
		e.Raw(`"`)
	}
}

// EndTag appends `</name>`.
func (e *Emitter) EndTag(name string) {
	e.Raw("</")
	e.Raw(name)
	e.Raw(">")
}

// Node appends the subtree rooted at n, stopping once a write has failed.
func (e *Emitter) Node(n *Node) {
	switch n.Kind {
	case Text:
		e.Text(n.Data)
		return
	case Element:
		e.StartTag(n.Label, n.Attrs)
		if len(n.Children) == 0 {
			e.Raw("/>")
			return
		}
		e.Raw(">")
	}
	for _, c := range n.Children {
		if e.Node(c); e.err != nil {
			return
		}
	}
	if n.Kind == Element {
		e.EndTag(n.Label)
	}
}

// WriteXML serializes the subtree rooted at n to w as XML. Text is escaped;
// no whitespace is introduced, so parsing the output yields a tree Equal to
// n (see sax.Parse).
func (n *Node) WriteXML(w io.Writer) error {
	e := NewEmitter(w)
	e.Node(n)
	return e.Flush()
}

// String returns the compact XML serialization of n.
func (n *Node) String() string {
	var b strings.Builder
	n.WriteXML(&b)
	return b.String()
}

// WriteIndented serializes the subtree rooted at n with two-space
// indentation, for human inspection. Text children are emitted inline with
// their parent when the element has only text children; mixed content is
// emitted unindented to avoid changing its value.
func (n *Node) WriteIndented(w io.Writer) error {
	e := NewEmitter(w)
	e.indented(n, 0)
	e.Raw("\n")
	return e.Flush()
}

func onlyTextChildren(n *Node) bool {
	for _, c := range n.Children {
		if c.Kind != Text {
			return false
		}
	}
	return true
}

func (e *Emitter) indented(n *Node, depth int) {
	pad := strings.Repeat("  ", depth)
	switch n.Kind {
	case Document:
		for i, c := range n.Children {
			if i > 0 {
				e.Raw("\n")
			}
			e.indented(c, depth)
		}
	case Text:
		e.Raw(pad)
		e.Text(n.Data)
	case Element:
		e.Raw(pad)
		e.StartTag(n.Label, n.Attrs)
		if len(n.Children) == 0 {
			e.Raw("/>")
			return
		}
		e.Raw(">")
		if onlyTextChildren(n) {
			for _, c := range n.Children {
				e.Text(c.Data)
			}
		} else {
			for _, c := range n.Children {
				e.Raw("\n")
				e.indented(c, depth+1)
			}
			e.Raw("\n")
			e.Raw(pad)
		}
		e.EndTag(n.Label)
	}
}
