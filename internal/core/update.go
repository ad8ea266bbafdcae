// Package core implements transform queries (Fan, Cong & Bohannon, SIGMOD
// 2007): queries of the form
//
//	transform copy $a := doc("T") modify do u($a) return $a
//
// whose embedded update u is one of
//
//	insert e into $a/p      delete $a/p
//	replace $a/p with e     rename $a/p as l
//
// together with the paper's evaluation algorithms: the Naive rewriting
// method (§3.1), the automaton-guided topDown method (§3.3, "GENTOP"), the
// bottomUp qualifier pass with QualDP (§5) and the resulting twoPass
// method ("TD-BU"), plus the copy-and-update baseline that models engines
// with native update support (GalaX in the paper's experiments).
package core

import (
	"fmt"

	"xtq/internal/tree"
	"xtq/internal/xerr"
	"xtq/internal/xpath"
)

// Op is the kind of an embedded update.
type Op uint8

const (
	// Insert adds a constant element as the last child of every node
	// selected by the path.
	Insert Op = iota
	// Delete removes every selected node along with its subtree.
	Delete
	// Replace substitutes a constant element for every selected node.
	// When selected nodes are nested, the outermost replacement wins
	// (the inner node is already gone).
	Replace
	// Rename changes the label of every selected node. Selection is
	// determined entirely on the original tree, so renaming a node does
	// not affect which of its descendants are selected.
	Rename
)

// String returns the update keyword.
func (op Op) String() string {
	switch op {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Replace:
		return "replace"
	case Rename:
		return "rename"
	default:
		return "invalid"
	}
}

// Update is the embedded update u($a) of a transform query.
type Update struct {
	Op    Op
	Path  *xpath.Path
	Elem  *tree.Node // constant element for Insert and Replace
	Label string     // new label for Rename
}

// Validate checks that the update is well formed. Failures are *xerr.Error
// with kind Compile.
func (u *Update) Validate() error {
	if u.Path == nil || len(u.Path.Steps) == 0 {
		return xerr.New(xerr.Compile, "", "core: update has no path")
	}
	if u.Path.HasAttributeStep() {
		return xerr.New(xerr.Compile, "", "core: update path selects attributes")
	}
	switch u.Op {
	case Insert, Replace:
		if u.Elem == nil || u.Elem.Kind != tree.Element {
			return xerr.New(xerr.Compile, "", "core: %s requires a constant element", u.Op)
		}
		if err := tree.Validate(u.Elem); err != nil {
			return &xerr.Error{Kind: xerr.Compile, Msg: fmt.Sprintf("core: %s element: %v", u.Op, err), Err: err}
		}
	case Delete:
		if u.Elem != nil || u.Label != "" {
			return xerr.New(xerr.Compile, "", "core: delete takes no element or label")
		}
	case Rename:
		if u.Label == "" {
			return xerr.New(xerr.Compile, "", "core: rename requires a label")
		}
	default:
		return xerr.New(xerr.Compile, "", "core: invalid op %d", u.Op)
	}
	return nil
}

// String renders the update in transform-query surface syntax with the
// variable name v (e.g. "$a").
func (u *Update) String(v string) string {
	ps := u.Path.String()
	p := v + "/" + ps
	if len(ps) > 0 && ps[0] == '/' {
		p = v + ps // "//"-rooted paths carry their own separator
	}
	switch u.Op {
	case Insert:
		return fmt.Sprintf("insert %s into %s", u.Elem, p)
	case Delete:
		return fmt.Sprintf("delete %s", p)
	case Replace:
		return fmt.Sprintf("replace %s with %s", p, u.Elem)
	case Rename:
		return fmt.Sprintf("rename %s as %s", p, u.Label)
	default:
		return "invalid"
	}
}

// apply destructively applies the update to doc, a private copy that no
// index has stamped: this is the second half of the copy-and-update
// baseline and the only mutating operation on trees in the repository.
// The selected set r[[p]] is computed before any mutation, matching the
// paper's update semantics (§2). The caller validates the update first.
func (u *Update) apply(doc *tree.Node) {
	sel := make(map[*tree.Node]struct{})
	for _, n := range xpath.Select(doc, u.Path) {
		sel[n] = struct{}{}
	}
	applyInPlace(doc, sel, u)
}

func applyInPlace(n *tree.Node, sel map[*tree.Node]struct{}, u *Update) {
	// Rewrite the child list: delete removes members, replace
	// substitutes the constant element (without descending further).
	out := n.Children[:0]
	for _, c := range n.Children {
		_, hit := sel[c]
		if hit {
			switch u.Op {
			case Delete:
				continue
			case Replace:
				out = append(out, u.Elem.DeepCopy())
				continue
			case Rename:
				c.Label = u.Label
				c.Sym = tree.NoSym
			case Insert:
				// handled after recursion so the inserted
				// element is the last child
			}
		}
		applyInPlace(c, sel, u)
		if hit && u.Op == Insert {
			c.Children = append(c.Children, u.Elem.DeepCopy())
		}
		out = append(out, c)
	}
	n.Children = out
}
