package xpath

import (
	"strconv"
	"strings"

	"xtq/internal/tree"
)

// Select evaluates the path p at context node ctx and returns the selected
// element nodes in document order, without duplicates (the '//' axis can
// reach a node along several routes). This is the reference semantics
// v[[p]] of §2; the Naive method and all correctness tests are defined
// against it.
//
// Attribute steps are not valid in selecting paths and yield an empty
// result; use EvalQual for qualifier paths that end in attribute tests.
func Select(ctx *tree.Node, p *Path) []*tree.Node {
	frontier := []*tree.Node{ctx}
	for _, s := range p.Steps {
		if len(frontier) == 0 {
			return nil
		}
		frontier = applyStep(frontier, s)
	}
	return frontier
}

// applyStep maps a frontier (in document order, duplicate-free) through one
// step, preserving order and uniqueness.
func applyStep(frontier []*tree.Node, s Step) []*tree.Node {
	var out []*tree.Node
	seen := make(map[*tree.Node]struct{})
	add := func(n *tree.Node) {
		if _, dup := seen[n]; dup {
			return
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	for _, n := range frontier {
		switch s.Axis {
		case Child:
			for _, c := range n.Children {
				if c.Kind != tree.Element {
					continue
				}
				if !s.Wildcard && c.Label != s.Label {
					continue
				}
				if qualsHold(c, s.Quals) {
					add(c)
				}
			}
		case DescendantOrSelf:
			// Qualifiers never appear on '//' itself (the parser
			// attaches them to named steps), but handle them anyway.
			var visit func(m *tree.Node)
			visit = func(m *tree.Node) {
				if m.Kind == tree.Element || m.Kind == tree.Document {
					if qualsHold(m, s.Quals) {
						add(m)
					}
				}
				for _, c := range m.Children {
					if c.Kind == tree.Element {
						visit(c)
					}
				}
			}
			visit(n)
		case Self:
			if qualsHold(n, s.Quals) {
				add(n)
			}
		case Attribute:
			// Attributes are not nodes in this model; selection paths
			// must not contain attribute steps.
		}
	}
	return out
}

func qualsHold(n *tree.Node, quals []Qual) bool {
	for _, q := range quals {
		if !EvalQual(n, q) {
			return false
		}
	}
	return true
}

// EvalQual evaluates qualifier q at context node n. It implements checkp()
// of §3.3 by direct recursive evaluation — the strategy the paper calls
// "native qualifier evaluation" (as done by Qizx) and uses in GENTOP.
func EvalQual(n *tree.Node, q Qual) bool {
	switch q := q.(type) {
	case *TrueQual:
		return true
	case *LabelQual:
		return n.Kind == tree.Element && n.Label == q.Label
	case *AndQual:
		return EvalQual(n, q.L) && EvalQual(n, q.R)
	case *OrQual:
		return EvalQual(n, q.L) || EvalQual(n, q.R)
	case *NotQual:
		return !EvalQual(n, q.X)
	case *PathQual:
		return NewPathTest(q.Path, OpNone, "").Exists(n)
	case *CmpQual:
		return NewPathTest(q.Path, q.Op, q.Lit).Exists(n)
	default:
		return false
	}
}

// PathTest is a qualifier path prepared for its test: the navigation
// steps, the trailing attribute name (empty when the path ends on an
// element) and the comparison a selected value must pass (OpNone: being
// selected is enough). An empty path tests the context node itself.
type PathTest struct {
	Steps []Step
	Attr  string
	Op    CmpOp
	Lit   string
}

// NewPathTest splits p into its navigation steps and attribute tail. It
// is the one home of the attribute-tail convention: a/b/@id navigates a/b
// and then reads @id, an attribute-only path @id reads the attribute of
// the context node itself (no steps), and a nil path has no steps and no
// tail.
func NewPathTest(p *Path, op CmpOp, lit string) PathTest {
	t := PathTest{Op: op, Lit: lit}
	if p == nil {
		return t
	}
	t.Steps = p.Steps
	if k := len(t.Steps); k > 0 && t.Steps[k-1].Axis == Attribute {
		t.Attr = t.Steps[k-1].Label
		t.Steps = t.Steps[:k-1]
	}
	return t
}

// Holds reports whether m, a node the steps selected, passes the test's
// tail: the attribute (present, and comparing true when Op is set) or the
// node's value.
func (t PathTest) Holds(m *tree.Node) bool {
	v := ""
	if t.Attr != "" {
		var ok bool
		if v, ok = m.Attr(t.Attr); !ok {
			return false
		}
	} else if t.Op != OpNone {
		v = m.Value()
	}
	return t.Op == OpNone || Compare(v, t.Op, t.Lit)
}

// Exists reports whether some node that Select(n, Steps) would return
// passes Holds: checkp()'s path test. It is a first-witness search, not a
// Select: depth first, it returns at the first node that passes and
// builds no frontier and no duplicate set, since a node reached twice
// cannot change an existence answer. A '//' step followed by a child step
// is walked as one, like the fused walks of the evaluators.
func (t PathTest) Exists(n *tree.Node) bool {
	if len(t.Steps) == 0 {
		return t.Holds(n)
	}
	s := &t.Steps[0]
	rest := t
	rest.Steps = t.Steps[1:]
	switch s.Axis {
	case Child:
		for _, c := range n.Children {
			if c.Kind == tree.Element && s.holds(c) && rest.Exists(c) {
				return true
			}
		}
	case DescendantOrSelf:
		if len(s.Quals) == 0 && len(rest.Steps) > 0 && rest.Steps[0].Axis == Child {
			// '//l': every l child of n or of one of its descendants.
			l := &rest.Steps[0]
			after := rest
			after.Steps = rest.Steps[1:]
			for _, c := range n.Children {
				if c.Kind == tree.Element && (l.holds(c) && after.Exists(c) || t.Exists(c)) {
					return true
				}
			}
			return false
		}
		if (n.Kind == tree.Element || n.Kind == tree.Document) && qualsHold(n, s.Quals) && rest.Exists(n) {
			return true
		}
		for _, c := range n.Children {
			if c.Kind == tree.Element && t.Exists(c) {
				return true
			}
		}
	case Self:
		return qualsHold(n, s.Quals) && rest.Exists(n)
	}
	return false
}

// holds reports whether element c passes child step s: its label test and
// its qualifiers.
func (s *Step) holds(c *tree.Node) bool {
	return (s.Wildcard || c.Label == s.Label) && qualsHold(c, s.Quals)
}

// mayBeNumber is a cheap pre-filter for parseFloat: it accepts every
// character that can occur in a string strconv.ParseFloat accepts (digits,
// sign, point, exponent and the inf/nan spellings), so rejecting a string
// here proves ParseFloat would fail — without paying for the error value
// ParseFloat allocates on failure. Qualifier comparisons run once per
// candidate node, and most non-numeric values (names, country codes) are
// rejected on their first letter.
func mayBeNumber(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
		case c == '.' || c == '+' || c == '-' || c == '_':
			// '_' included: ParseFloat accepts Go-style digit separators.
		default:
			switch c | 0x20 { // ASCII lower-case
			case 'e', 'i', 'n', 'f', 't', 'y', 'a', 'x', 'p':
				// exponents, hex floats, "inf(inity)", "nan"
			default:
				return false
			}
		}
	}
	return true
}

// parseFloat is strconv.ParseFloat behind the mayBeNumber pre-filter.
func parseFloat(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if !mayBeNumber(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// Compare applies "value op lit". When both sides parse as floating-point
// numbers the comparison is numeric, otherwise it is lexicographic — the
// convention needed by the XMark qualifiers (increase > 5, age > 20) while
// keeping string equality tests (country = 'A') exact.
func Compare(value string, op CmpOp, lit string) bool {
	var cmp int
	if lv, okV := parseFloat(value); okV {
		if ll, okL := parseFloat(lit); okL {
			switch {
			case lv < ll:
				cmp = -1
			case lv > ll:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(value, lit)
		}
	} else {
		cmp = strings.Compare(value, lit)
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	default:
		return false
	}
}
