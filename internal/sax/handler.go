// Package sax implements a from-scratch streaming XML parser and serializer
// with the five-event model assumed by the paper's twoPassSAX algorithm
// (§6): startDocument, startElement, text, endElement, endDocument.
//
// The parser is deliberately small: it supports elements, attributes,
// character data, the five predefined entities plus numeric character
// references, CDATA sections, comments, processing instructions and a
// DOCTYPE prologue. Namespaces are out of scope, as in the paper.
package sax

import (
	"io"

	"xtq/internal/tree"
)

// Handler receives the SAX event stream of a document. Methods returning a
// non-nil error abort parsing and propagate the error to the caller.
type Handler interface {
	StartDocument() error
	StartElement(name string, attrs []tree.Attr) error
	Text(data string) error
	EndElement(name string) error
	EndDocument() error
}

// SymbolHandler is an optional extension of Handler for consumers that
// work with interned symbols. When a Parser's handler implements it, the
// parser calls SetSymbols with its interning table before StartDocument
// and delivers start tags through StartElementSym (instead of
// StartElement) with the label's dense tree.SymID — the symbol-keyed
// evaluators step their automata on the id without ever comparing label
// strings. The table grows as the parse discovers new names and must not
// be shared outside the handler until the parse completes.
type SymbolHandler interface {
	Handler
	SetSymbols(*tree.Symbols)
	StartElementSym(sym tree.SymID, name string, attrs []tree.Attr) error
}

// TreeBuilder is a Handler that materializes the event stream as a
// tree.Node document. Driven by a Parser it is also a SymbolHandler: the
// parser's interning table becomes the document's symbol table and the
// finished document is indexed (tree.Index) before Document returns it,
// so evaluation never pays a separate indexing walk for parsed input.
type TreeBuilder struct {
	doc   *tree.Node
	stack []*tree.Node
	syms  *tree.Symbols
	ib    *tree.IndexBuilder
}

// Document returns the built document; valid after EndDocument.
func (b *TreeBuilder) Document() *tree.Node { return b.doc }

// SetSymbols implements SymbolHandler.
func (b *TreeBuilder) SetSymbols(s *tree.Symbols) { b.syms = s }

// StartDocument implements Handler.
func (b *TreeBuilder) StartDocument() error {
	b.doc = tree.NewDocument(nil)
	b.stack = b.stack[:0]
	b.stack = append(b.stack, b.doc)
	// A symbol-aware parser has already interned attribute names into the
	// table it handed over; without one the builder interns them itself.
	b.ib = tree.NewIndexBuilder(b.syms, b.syms == nil)
	b.ib.Add(b.doc)
	return nil
}

// StartElement implements Handler.
func (b *TreeBuilder) StartElement(name string, attrs []tree.Attr) error {
	return b.StartElementSym(tree.NoSym, name, attrs)
}

// StartElementSym implements SymbolHandler.
func (b *TreeBuilder) StartElementSym(sym tree.SymID, name string, attrs []tree.Attr) error {
	e := tree.NewElement(name)
	e.Sym = sym
	if len(attrs) > 0 {
		e.Attrs = make([]tree.Attr, len(attrs))
		copy(e.Attrs, attrs)
	}
	b.ib.Add(e)
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, e)
	b.stack = append(b.stack, e)
	return nil
}

// Text implements Handler.
func (b *TreeBuilder) Text(data string) error {
	t := tree.NewText(data)
	b.ib.Add(t)
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, t)
	return nil
}

// EndElement implements Handler.
func (b *TreeBuilder) EndElement(string) error {
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// EndDocument implements Handler.
func (b *TreeBuilder) EndDocument() error {
	b.stack = b.stack[:len(b.stack)-1]
	b.ib.Finish(b.doc)
	b.ib = nil
	b.syms = nil
	return nil
}

// Emit replays the subtree rooted at n as SAX events on h, including the
// surrounding StartDocument/EndDocument pair when n is a document node.
// It is the bridge from the DOM world back into the event world. When h is
// a *Writer the events would only be turned back into bytes, so the tree is
// serialized directly (same output, no per-event dispatch).
func Emit(n *tree.Node, h Handler) error {
	if w, ok := h.(*Writer); ok {
		return w.emitTree(n)
	}
	if n.Kind == tree.Document {
		if err := h.StartDocument(); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := emitNode(c, h); err != nil {
				return err
			}
		}
		return h.EndDocument()
	}
	return emitNode(n, h)
}

func emitNode(n *tree.Node, h Handler) error {
	switch n.Kind {
	case tree.Text:
		return h.Text(n.Data)
	case tree.Element:
		if err := h.StartElement(n.Label, n.Attrs); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := emitNode(c, h); err != nil {
				return err
			}
		}
		return h.EndElement(n.Label)
	default:
		return nil
	}
}

// Parse reads an XML document from r and returns it as a tree. It is the
// standard way the rest of the repository loads documents into memory.
func Parse(r io.Reader) (*tree.Node, error) {
	var b TreeBuilder
	p := NewParser(r, &b)
	if err := p.Parse(); err != nil {
		return nil, err
	}
	return b.Document(), nil
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*tree.Node, error) {
	return Parse(newStringReader(s))
}

type stringReader struct {
	s string
	i int
}

func newStringReader(s string) *stringReader { return &stringReader{s: s} }

func (r *stringReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	n := copy(p, r.s[r.i:])
	r.i += n
	return n, nil
}
