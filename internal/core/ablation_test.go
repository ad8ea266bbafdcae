package core

import (
	"context"
	"math/rand"
	"testing"

	"xtq/internal/automaton"
	"xtq/internal/tree"
	"xtq/internal/xpath"
)

func TestNoPruneAgrees(t *testing.T) {
	genOpts := tree.DefaultGenOptions()
	cfg := xpath.DefaultGenConfig()
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := tree.Generate(rng, genOpts)
		p := xpath.RandomPath(rng, cfg)
		q := &Query{Var: "a", Doc: "gen", Update: Update{Op: Delete, Path: p}}
		c, err := q.Compile()
		if err != nil {
			continue
		}
		want, err := EvalTopDown(context.Background(), c, d, DirectChecker{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalTopDownNoPrune(context.Background(), c, d, DirectChecker{})
		if err != nil {
			t.Fatal(err)
		}
		if !tree.Equal(want, got) {
			t.Fatalf("seed %d: ablation differs for %s", seed, p)
		}
	}
}

// EvalTopDownNoPrune is EvalTopDown with the empty-state-set shortcut
// (Fig. 3 lines 2-3) disabled: the traversal continues into subtrees no
// automaton state can reach. It computes the same result and exists only
// as an ablation — benchmarked against EvalTopDown it isolates how much of
// the topDown method's advantage over whole-tree approaches comes from
// subtree pruning. It lives in a test file so it stays out of the
// production build; BenchmarkAblationNoPrune (package core_test) and
// TestNoPruneAgrees are its only callers.
func EvalTopDownNoPrune(ctx context.Context, c *Compiled, doc *tree.Node, check QualChecker) (*tree.Node, error) {
	can := NewCanceler(ctx)
	var process func(n *tree.Node, s automaton.StateSet) []*tree.Node
	process = func(n *tree.Node, s automaton.StateSet) []*tree.Node {
		if can.Stopped() {
			return nil
		}
		m := c.NFA
		next := m.Step(s, n.Label, func(id int) bool { return check.Check(&m.States[id], n) })
		u := &c.Query.Update
		matched := m.Matches(next)
		if matched {
			switch u.Op {
			case Delete:
				return nil
			case Replace:
				return []*tree.Node{u.Elem.DeepCopy()}
			}
		}
		changed := false
		newChildren := make([]*tree.Node, 0, len(n.Children)+1)
		for _, ch := range n.Children {
			if ch.Kind != tree.Element {
				newChildren = append(newChildren, ch)
				continue
			}
			r := process(ch, next)
			if len(r) != 1 || r[0] != ch {
				changed = true
			}
			newChildren = append(newChildren, r...)
		}
		if matched && u.Op == Insert {
			newChildren = append(newChildren, u.Elem.DeepCopy())
			changed = true
		}
		relabel := matched && u.Op == Rename
		if !changed && !relabel {
			return []*tree.Node{n}
		}
		out := &tree.Node{Kind: tree.Element, Label: n.Label, Attrs: n.Attrs, Children: newChildren}
		if relabel {
			out.Label = u.Label
		}
		return []*tree.Node{out}
	}

	s0 := c.NFA.InitialSet()
	result := tree.NewDocument(nil)
	for _, ch := range doc.Children {
		if ch.Kind != tree.Element {
			result.Children = append(result.Children, ch)
			continue
		}
		result.Children = append(result.Children, process(ch, s0)...)
	}
	if err := can.Err(); err != nil {
		return nil, err
	}
	return result, nil
}
