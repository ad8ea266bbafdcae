package sax

import (
	"fmt"
	"io"

	"xtq/internal/tree"
)

// Writer is a Handler that serializes the event stream back to XML. It is
// the output side of the twoPassSAX evaluator: the second pass rewrites the
// input event stream and pushes the result into a Writer (or any other
// Handler, e.g. a TreeBuilder or a downstream query operator). Every event
// reports the tree.Emitter's sticky write error, so producers stop at it.
type Writer struct {
	e    tree.Emitter
	open bool // a start tag is open and may still become self-closing
}

// NewWriter returns a Writer serializing to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{e: tree.NewEmitter(w)}
}

// Flush writes buffered output to the underlying writer; repeatable.
func (s *Writer) Flush() error { return s.e.Flush() }

func (s *Writer) closeOpenTag() {
	if s.open {
		s.e.Raw(">")
		s.open = false
	}
}

// emitTree serializes the subtree at n straight into the emitter — what
// Emit(n, s) produces, without an interface call per event.
func (s *Writer) emitTree(n *tree.Node) error {
	s.closeOpenTag()
	s.e.Node(n)
	if n.Kind == tree.Document {
		return s.EndDocument()
	}
	return s.e.Err()
}

// StartDocument implements Handler.
func (s *Writer) StartDocument() error { return nil }

// StartElement implements Handler.
func (s *Writer) StartElement(name string, attrs []tree.Attr) error {
	s.closeOpenTag()
	s.e.StartTag(name, attrs)
	s.open = true
	return s.e.Err()
}

// Text implements Handler.
func (s *Writer) Text(data string) error {
	s.closeOpenTag()
	s.e.Text(data)
	return s.e.Err()
}

// EndElement implements Handler.
func (s *Writer) EndElement(name string) error {
	if s.open {
		s.e.Raw("/>")
		s.open = false
	} else {
		s.e.EndTag(name)
	}
	return s.e.Err()
}

// EndDocument implements Handler.
func (s *Writer) EndDocument() error { return s.e.Flush() }

// Event is one recorded SAX event, used by tests and diagnostics.
type Event struct {
	Kind  string // "startDocument", "startElement", "text", "endElement", "endDocument"
	Name  string
	Attrs []tree.Attr
	Data  string
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case "startElement":
		return fmt.Sprintf("<%s %v>", e.Name, e.Attrs)
	case "endElement":
		return fmt.Sprintf("</%s>", e.Name)
	case "text":
		return fmt.Sprintf("text(%q)", e.Data)
	default:
		return e.Kind
	}
}

// Recorder is a Handler that records all events, for tests.
type Recorder struct {
	Events []Event
}

// StartDocument implements Handler.
func (r *Recorder) StartDocument() error {
	r.Events = append(r.Events, Event{Kind: "startDocument"})
	return nil
}

// StartElement implements Handler.
func (r *Recorder) StartElement(name string, attrs []tree.Attr) error {
	cp := make([]tree.Attr, len(attrs))
	copy(cp, attrs)
	r.Events = append(r.Events, Event{Kind: "startElement", Name: name, Attrs: cp})
	return nil
}

// Text implements Handler.
func (r *Recorder) Text(data string) error {
	r.Events = append(r.Events, Event{Kind: "text", Data: data})
	return nil
}

// EndElement implements Handler.
func (r *Recorder) EndElement(name string) error {
	r.Events = append(r.Events, Event{Kind: "endElement", Name: name})
	return nil
}

// EndDocument implements Handler.
func (r *Recorder) EndDocument() error {
	r.Events = append(r.Events, Event{Kind: "endDocument"})
	return nil
}
