package xpath

import (
	"math/rand"
	"testing"

	"xtq/internal/tree"
)

// refQual is the Select-based reference for EvalQual: a path test selects
// every node the path reaches, then asks whether one passes the tail.
// EvalQual's first-witness search must give the same answer.
func refQual(n *tree.Node, q Qual) bool {
	switch q := q.(type) {
	case *TrueQual:
		return true
	case *LabelQual:
		return n.Kind == tree.Element && n.Label == q.Label
	case *AndQual:
		return refQual(n, q.L) && refQual(n, q.R)
	case *OrQual:
		return refQual(n, q.L) || refQual(n, q.R)
	case *NotQual:
		return !refQual(n, q.X)
	case *PathQual:
		return refPathTest(n, q.Path, OpNone, "")
	case *CmpQual:
		return refPathTest(n, q.Path, q.Op, q.Lit)
	}
	return false
}

func refPathTest(n *tree.Node, p *Path, op CmpOp, lit string) bool {
	steps := p.Steps
	attr := ""
	if k := len(steps); k > 0 && steps[k-1].Axis == Attribute {
		attr, steps = steps[k-1].Label, steps[:k-1]
	}
	for _, m := range Select(n, &Path{Steps: steps}) {
		v := m.Value()
		if attr != "" {
			var ok bool
			if v, ok = m.Attr(attr); !ok {
				continue
			}
		}
		if op == OpNone || Compare(v, op, lit) {
			return true
		}
	}
	return false
}

// randomTestPath is a random qualifier path: RandomPath's child and '//'
// steps, plus shapes RandomPath never builds at the top level — self
// steps, '//' steps carrying a qualifier, and an attribute tail.
func randomTestPath(rng *rand.Rand, cfg GenConfig) *Path {
	p := &Path{}
	for _, s := range RandomPath(rng, cfg).Steps {
		switch r := rng.Float64(); {
		case r < 0.15:
			p.Steps = append(p.Steps, Step{Axis: Self, Quals: []Qual{RandomQual(rng, cfg)}})
		case r < 0.25:
			p.Steps = append(p.Steps, Step{Axis: DescendantOrSelf, Quals: []Qual{RandomQual(rng, cfg)}})
		}
		p.Steps = append(p.Steps, s)
	}
	if rng.Intn(3) == 0 {
		p.Steps = append(p.Steps, Step{Axis: Attribute, Label: cfg.Attrs[rng.Intn(len(cfg.Attrs))]})
	}
	return p
}

// subQuals appends q and every qualifier nested in it, including those on
// the steps of its paths.
func subQuals(q Qual, out []Qual) []Qual {
	out = append(out, q)
	switch q := q.(type) {
	case *AndQual:
		out = subQuals(q.R, subQuals(q.L, out))
	case *OrQual:
		out = subQuals(q.R, subQuals(q.L, out))
	case *NotQual:
		out = subQuals(q.X, out)
	case *PathQual:
		out = stepQuals(q.Path, out)
	case *CmpQual:
		out = stepQuals(q.Path, out)
	}
	return out
}

func stepQuals(p *Path, out []Qual) []Qual {
	for _, s := range p.Steps {
		for _, q := range s.Quals {
			out = subQuals(q, out)
		}
	}
	return out
}

// TestEvalQualMatchesSelectReference checks the first-witness qualifier
// test against the Select-based reference at every node of random trees,
// for random path and comparison qualifiers and everything nested in them.
func TestEvalQualMatchesSelectReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	genOpts := tree.DefaultGenOptions()
	cfg := DefaultGenConfig()
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	checked, held := 0, 0
	for iter := 0; iter < 300; iter++ {
		doc := tree.Generate(rng, genOpts)
		var q Qual
		if p := randomTestPath(rng, cfg); rng.Intn(2) == 0 {
			q = &PathQual{Path: p}
		} else {
			q = &CmpQual{Path: p, Op: ops[rng.Intn(len(ops))], Lit: cfg.Values[rng.Intn(len(cfg.Values))]}
		}
		quals := subQuals(q, nil)
		var visit func(n *tree.Node)
		visit = func(n *tree.Node) {
			for _, sq := range quals {
				got, want := EvalQual(n, sq), refQual(n, sq)
				if got != want {
					t.Fatalf("iter %d: EvalQual(<%s>, %s) = %v, reference %v", iter, n.Label, sq, got, want)
				}
				checked++
				if got {
					held++
				}
			}
			for _, c := range n.Children {
				if c.Kind == tree.Element {
					visit(c)
				}
			}
		}
		visit(doc)
	}
	// Both answers must be common, or the comparison proves little.
	if held == 0 || held == checked {
		t.Fatalf("degenerate sample: %d of %d qualifier tests held", held, checked)
	}
	t.Logf("%d qualifier tests, %d held", checked, held)
}
