package compose

import (
	"fmt"
	"strings"

	"xtq/internal/automaton"
	"xtq/internal/core"
	"xtq/internal/xpath"
	"xtq/internal/xquery"
)

// This file renders the composition in the XQuery form of §4 (examples
// Q1c/Q2c/Q3c): the user query's for clause becomes a cascade of for
// loops, the transform query's qualifiers become "if empty(...)"
// conditionals at the steps where the selecting NFA may enter a qualified
// state, delete-matched steps short-circuit to "( )", and returned values
// that may still carry pending updates are wrapped in the embedded
// topDown() user-defined function. Eval executes the identical state
// discipline directly; the text is the inspectable artifact.

// deltaPrime is the extension δ′ of the transition function (§4): a user
// query step is treated as a "letter". Wildcards take every label
// transition, '//' takes the closure over unbounded '*' sequences.
func deltaPrime(m *automaton.NFA, s automaton.StateSet, step xpath.Step) automaton.StateSet {
	switch step.Axis {
	case xpath.Child:
		if !step.Wildcard {
			return m.Step(s, step.Label, nil)
		}
		// δ′((s,[q]),∗) ⊇ δ((s,[q]),l) for every tag l.
		out := m.NewSet()
		for _, id := range s.IDs() {
			st := &m.States[id]
			if st.SelfLoop {
				addWithEps(m, out, id)
			}
			if st.Next >= 0 {
				addWithEps(m, out, st.Next)
			}
		}
		return out
	case xpath.DescendantOrSelf:
		// δ′((s,[q]),//): all states reachable via any sequence of ∗.
		out := s.Clone()
		for {
			grown := deltaPrime(m, out, xpath.Step{Axis: xpath.Child, Wildcard: true})
			merged := out.Clone()
			for _, id := range grown.IDs() {
				merged.Add(id)
			}
			if merged.Equal(out) {
				return out
			}
			out = merged
		}
	default: // Self
		return s.Clone()
	}
}

func addWithEps(m *automaton.NFA, set automaton.StateSet, id int) {
	for id >= 0 {
		if set.Has(id) {
			return
		}
		set.Add(id)
		id = m.States[id].Eps
	}
}

// XQueryText renders the composition Qc of the transform query qt and the
// user query q in standard XQuery following the paper's rewriting. The
// text tracks the static (may-)state sets Si; qualifier outcomes that are
// only known at runtime appear as the conditionals of the printed query,
// exactly as in examples Q1c-Q3c.
func XQueryText(qt *core.Compiled, q *xquery.UserQuery) string {
	m := qt.NFA
	u := &qt.Query.Update
	var b strings.Builder
	b.WriteString("<result> {\n")
	s := m.InitialSet()
	steps := q.Path.Steps
	indent := ""

	i := 0
	loopVar := 0
	prev := "" // previous loop variable, "" = document
	for _, st := range steps {
		if st.Axis == xpath.DescendantOrSelf {
			s = deltaPrime(m, s, st)
			continue
		}
		i++
		loopVar++
		v := fmt.Sprintf("y%d", loopVar)
		src := "/"
		if prev != "" {
			src = "$" + prev + "/"
		}
		stepTxt := renderStep(st)
		next := deltaPrime(m, s, st)

		fmt.Fprintf(&b, "%sfor $%s in %s%s\n", indent, v, src, stepTxt)
		indent += "  "

		// Qualifiers of states the NFA may enter at this step become a
		// runtime conditional (§4, "Handling qualifiers and the final
		// state in Si").
		var conds []string
		finalEntered := false
		for _, id := range next.IDs() {
			state := &m.States[id]
			if state.Final {
				finalEntered = true
			}
			for _, ql := range state.Quals {
				conds = append(conds, ql.String())
			}
		}
		cond := strings.Join(conds, " and ")
		if finalEntered {
			switch u.Op {
			case core.Delete:
				if cond == "" {
					// Unconditional delete of every node this loop
					// binds: the rest folds to the empty sequence
					// (example Q2c folds the qualifier instead).
					fmt.Fprintf(&b, "%sreturn ( ) (: deleted by %s :)\n", indent, u.String("$a"))
					b.WriteString("} </result>")
					return b.String()
				}
				fmt.Fprintf(&b, "%sreturn if empty($%s[%s]) then\n", indent, v, cond)
				indent += "  "
			case core.Insert:
				fmt.Fprintf(&b, "%s(: insert reaches its target here; $%s subtrees are materialized below :)\n", indent, v)
			case core.Replace, core.Rename:
				fmt.Fprintf(&b, "%s(: %s applies at $%s :)\n", indent, u.Op, v)
			}
		} else if cond != "" {
			fmt.Fprintf(&b, "%s(: states %v pending on [%s] :)\n", indent, next.IDs(), cond)
		}
		s = next
		prev = v
	}

	fmt.Fprintf(&b, "%slet $x := $%s\n", indent, prev)
	if len(q.Conds) > 0 {
		var cs []string
		for _, cond := range q.Conds {
			cs = append(cs, cond.String("x"))
		}
		fmt.Fprintf(&b, "%swhere %s\n", indent, strings.Join(cs, " and "))
	}
	ret := renderReturn(q, s.Empty())
	fmt.Fprintf(&b, "%sreturn %s\n", indent, ret)
	if d, ok := q.Return.(*xquery.Hole); ok && !s.Empty() && !d.Operand.IsConst {
		fmt.Fprintf(&b, "%s(: topDown(Mp, S=%v, Qt, ·) is the user-defined function of Fig. 3 :)\n",
			indent, s.IDs())
	}
	// Close a pending delete conditional, if any.
	if strings.Contains(b.String(), "then\n") {
		fmt.Fprintf(&b, "%selse ( )\n", strings.TrimSuffix(indent, "  "))
	}
	b.WriteString("} </result>")
	return b.String()
}

func renderStep(st xpath.Step) string {
	var b strings.Builder
	if st.Wildcard {
		b.WriteByte('*')
	} else {
		b.WriteString(st.Label)
	}
	for _, q := range st.Quals {
		b.WriteByte('[')
		b.WriteString(q.String())
		b.WriteByte(']')
	}
	return b.String()
}

func renderReturn(q *xquery.UserQuery, disjoint bool) string {
	switch r := q.Return.(type) {
	case *xquery.Hole:
		op := r.Operand.String("x")
		if disjoint {
			return op
		}
		return fmt.Sprintf("topDown(Mp, S, Qt, %s)", op)
	default:
		const kw = " return "
		full := q.String()
		if idx := strings.LastIndex(full, kw); idx >= 0 {
			return strings.TrimSpace(full[idx+len(kw):])
		}
		return full
	}
}
