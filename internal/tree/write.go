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
// Node copies every subtree a chain image covers (see Image).
//
// An Emitter may carry a Recorder (Record), which it hands every byte
// it writes: each range Node copies from an image as that range, each
// Shared slice by reference, and everything else as literal runs, taken
// from the buffer when it spills or before a copy. Raw's fast path does
// not change: a recorder costs nothing per call.
type Emitter struct {
	w   io.Writer
	buf []byte // cap emitBufSize; nil before the first write and after Flush
	err error
	rec *Recorder
	// mark is the first byte of buf that rec has not been handed yet.
	mark int
}

// NewEmitter returns an Emitter writing to w.
func NewEmitter(w io.Writer) Emitter { return Emitter{w: w} }

// Record hands everything e writes from now on to r as well.
func (e *Emitter) Record(r *Recorder) {
	e.rec, e.mark = r, len(e.buf)
}

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
	if e.rec != nil {
		e.rec.literal(e.buf[e.mark:])
		e.mark = 0
	}
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

// rawSlow handles a string the buffer has no room for: it spills and
// writes s through if it cannot fit.
func (e *Emitter) rawSlow(s string) {
	if e.makeRoom(len(s)) {
		e.buf = append(e.buf, s...)
	} else if e.err == nil {
		if e.rec != nil {
			e.rec.literal([]byte(s))
		}
		_, e.err = io.WriteString(e.w, s)
	}
}

// makeRoom spills the buffer (taking one first if e holds none) and
// reports whether n bytes fit in it.
func (e *Emitter) makeRoom(n int) bool {
	if e.buf == nil {
		e.buf = emitBufs.Get().(*[emitBufSize]byte)[:0]
	}
	e.spill()
	return n <= emitBufSize
}

// Bytes appends b unescaped. A slice larger than the buffer is written
// straight through, without a copy.
func (e *Emitter) Bytes(b []byte) {
	if len(b) <= cap(e.buf)-len(e.buf) {
		e.buf = append(e.buf, b...)
		return
	}
	if e.makeRoom(len(b)) {
		e.buf = append(e.buf, b...)
	} else if e.err == nil {
		if e.rec != nil {
			e.rec.literal(b)
		}
		_, e.err = e.w.Write(b)
	}
}

// Shared appends b, a slice its owner never changes (a query constant's
// one serialization, written at every match): a recorder keeps a
// reference to b instead of a copy of its bytes.
func (e *Emitter) Shared(b []byte) {
	if e.rec == nil {
		e.Bytes(b)
		return
	}
	e.rec.literal(e.buf[e.mark:])
	e.rec.sharedBytes(b)
	e.recorded(b)
}

// recorded appends b once the recorder has been handed the bytes
// buffered before it and b itself, so that neither a spill nor a write
// through hands them over again.
func (e *Emitter) recorded(b []byte) {
	r := e.rec
	e.rec = nil
	e.Bytes(b)
	e.rec, e.mark = r, len(e.buf)
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
// A node with children that its chain's image covers goes out as the
// image's bytes (see Image), handed to a recorder as the image's range.
func (e *Emitter) Node(n *Node) {
	if len(n.Children) > 0 {
		if img, s := imaged(n); s.end != 0 {
			b := img.data[s.start:s.end:s.end]
			if e.rec == nil {
				e.Bytes(b)
				return
			}
			e.rec.literal(e.buf[e.mark:])
			e.rec.image(img, s)
			e.recorded(b)
			return
		}
	}
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
