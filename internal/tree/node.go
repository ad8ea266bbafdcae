// Package tree implements the in-memory XML document model used throughout
// xtq: ordered trees of document, element and text nodes with attributes.
//
// The model follows the data model of Fan, Cong and Bohannon, "Querying XML
// with Update Syntax" (SIGMOD 2007): a document node with a single element
// child (the root element), elements carrying a label, attributes and an
// ordered child list, and text leaves.
//
// Nodes are treated as immutable once built, which lets the topDown
// evaluator share unmodified subtrees between the input and the output of a
// transform query. The only code that mutates nodes in place is the
// copy-and-update baseline, which always works on a private deep copy that
// it never indexes. Indexing follows the same rule: a node's index stamp
// (ordinal and owning Index) is written at most once and never overwritten
// or cleared, so trees that share subtrees can be indexed and evaluated
// from any number of goroutines.
package tree

import (
	"strings"
	"sync/atomic"
)

// Kind distinguishes the three node kinds of the model.
type Kind uint8

const (
	// Document is the virtual node above the root element. XPath
	// expressions embedded in transform queries are evaluated with the
	// document node as context, so /site/... consumes the root element's
	// label as its first step.
	Document Kind = iota
	// Element is a labelled interior node.
	Element
	// Text is a character-data leaf.
	Text
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case Document:
		return "document"
	case Element:
		return "element"
	case Text:
		return "text"
	default:
		return "invalid"
	}
}

// Attr is a single name="value" attribute of an element.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an XML tree. The zero value is not useful; construct
// nodes with NewDocument, NewElement and NewText.
type Node struct {
	Kind     Kind
	Sym      SymID   // interned label symbol; NoSym unless set by a parser or Index walk
	Label    string  // element label; empty for document and text nodes
	Data     string  // character data; set only for text nodes
	Attrs    []Attr  // attributes; set only for element nodes
	Children []*Node // ordered children; empty for text nodes

	// ord and idx are the node's preorder ordinal and owning Index; they
	// are stamped at most once, by whichever index reaches the node
	// first (see index.go), and read through Index.OrdOf, which validates
	// ownership. idx is atomic and written after ord and Sym, so a reader
	// that loads the stamp sees the ordinal and symbol it vouches for.
	ord int32
	idx atomic.Pointer[Index]
}

// NewDocument returns a document node holding root as its root element.
// A nil root yields an empty document.
func NewDocument(root *Node) *Node {
	d := &Node{Kind: Document}
	if root != nil {
		d.Children = []*Node{root}
	}
	return d
}

// NewElement returns an element node with the given label and children.
func NewElement(label string, children ...*Node) *Node {
	return &Node{Kind: Element, Label: label, Children: children}
}

// NewText returns a text node carrying data.
func NewText(data string) *Node {
	return &Node{Kind: Text, Data: data}
}

// WithAttrs returns n after appending the given attributes; it is a
// builder-style convenience for constructing literal trees in tests and
// generators.
func (n *Node) WithAttrs(attrs ...Attr) *Node {
	n.Attrs = append(n.Attrs, attrs...)
	return n
}

// Append adds children to n and returns n.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Root returns the root element of a document node, or n itself when n is
// already an element. It returns nil for an empty document or a text node.
func (n *Node) Root() *Node {
	switch n.Kind {
	case Document:
		for _, c := range n.Children {
			if c.Kind == Element {
				return c
			}
		}
		return nil
	case Element:
		return n
	default:
		return nil
	}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Value returns the node's comparison value as used by qualifier tests of
// the form p = 's': for a text node its character data, and for an element
// the concatenation of its immediate text children. This matches the
// text()-based semantics of algorithm QualDP (Fig. 7 of the paper) and is
// what the streaming evaluator can compute in one pass; it deliberately
// excludes text nested under child elements.
func (n *Node) Value() string {
	if n.Kind == Text {
		return n.Data
	}
	// The overwhelmingly common shapes — no text child, or exactly one —
	// are answered without building (and allocating) a concatenation.
	first := ""
	count := 0
	for _, c := range n.Children {
		if c.Kind == Text {
			if count == 0 {
				first = c.Data
			}
			count++
		}
	}
	if count <= 1 {
		return first
	}
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == Text {
			b.WriteString(c.Data)
		}
	}
	return b.String()
}

// Elements returns the element children of n.
func (n *Node) Elements() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// FirstChild returns the first child of n, or nil.
func (n *Node) FirstChild() *Node {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[0]
}

// Size returns the number of nodes in the subtree rooted at n, counting n.
func (n *Node) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Depth returns the height of the subtree rooted at n; a leaf has depth 1.
func (n *Node) Depth() int {
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// CountElements returns the number of element nodes in the subtree,
// counting n when n is an element.
func (n *Node) CountElements() int {
	total := 0
	if n.Kind == Element {
		total = 1
	}
	for _, c := range n.Children {
		total += c.CountElements()
	}
	return total
}
