// Package automaton implements the selecting NFA of Fan, Cong and Bohannon
// (SIGMOD 2007, §3.2/§3.4) together with the machinery of the filtering NFA
// of §5.
//
// A selecting NFA Mp for an X expression p = β1[q1]/…/βk[qk] has states
// (si, [qi]); consuming a node's label moves the state set forward, a '//'
// step contributes an ε-transition into a state with a '*' self-loop
// (Fig. 5), and a node is selected exactly when the final state is entered
// while its qualifier holds at the node.
//
// The filtering NFA of the paper extends Mp with the qualifier paths so
// that a bottom-up pass knows which (sub-)qualifiers to evaluate at each
// node and when a subtree can be pruned. This implementation represents the
// qualifier-path positions by the interned normal-form expression ids of
// xpath.LQ instead of extra automaton states: NeedSet propagation (see
// needs.go) computes exactly the list LQ(S) of §5 at every node. The two
// formulations accept the same nodes and prune the same subtrees.
package automaton

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"xtq/internal/tree"
	"xtq/internal/xpath"
)

// State is one state (si, [qi]) of a selecting NFA.
type State struct {
	ID int
	// Quals is the qualifier [qi] as parsed (nil means [true]); it is
	// checked when the state is entered by consuming a node.
	Quals []xpath.Qual
	// QualID is the same qualifier in the NFA's qualifier list LQ.
	QualID int
	// SelfLoop marks a '//' state carrying the '*' self-cycle.
	SelfLoop bool
	// Next is the state entered by consuming a node that passes the
	// label test (NextLabel, or any element if NextWild); -1 at the end
	// of the path.
	Next      int
	NextLabel string
	NextWild  bool
	// Eps is the ε-successor introduced by a following '//' step; -1 if
	// none.
	Eps int
	// Final marks the accepting state (sk, [qk]).
	Final bool
}

// NFA is a selecting NFA for an X selection path.
type NFA struct {
	States []State
	Start  int
	Final  int
	// LQ holds the normalized qualifiers of all states (shared so that
	// the bottom-up algorithms evaluate common sub-expressions once).
	LQ *xpath.LQ
	// Path is the expression the NFA was built from.
	Path *xpath.Path
}

// New builds the selecting NFA Mp for path p. It returns an error for
// paths outside the transform-query fragment: attribute steps on the
// selection spine, a bare self path, or qualified self steps that cannot be
// folded into a preceding step.
func New(p *xpath.Path) (*NFA, error) {
	m := &NFA{LQ: xpath.NewLQ(), Path: p}
	// State 0 is the start state (s0, [true]).
	m.States = append(m.States, State{ID: 0, Next: -1, Eps: -1, QualID: m.LQ.True()})

	// Fold self steps into their predecessors and check step validity.
	type flatStep struct {
		desc  bool // '//'
		wild  bool
		label string
		quals []xpath.Qual
	}
	var steps []flatStep
	for _, s := range p.Steps {
		switch s.Axis {
		case xpath.Attribute:
			return nil, errors.New("automaton: attribute step in selection path")
		case xpath.Self:
			if len(s.Quals) == 0 {
				continue
			}
			if len(steps) == 0 {
				return nil, errors.New("automaton: qualified self step at path head")
			}
			last := &steps[len(steps)-1]
			if last.desc {
				return nil, errors.New("automaton: qualified self step after '//'")
			}
			last.quals = append(last.quals, s.Quals...)
		case xpath.DescendantOrSelf:
			steps = append(steps, flatStep{desc: true})
		case xpath.Child:
			steps = append(steps, flatStep{wild: s.Wildcard, label: s.Label, quals: s.Quals})
		}
	}
	consuming := 0
	for _, s := range steps {
		if !s.desc {
			consuming++
		}
	}
	if consuming == 0 {
		return nil, errors.New("automaton: selection path must contain at least one label or '*' step")
	}

	cur := 0
	for _, s := range steps {
		if s.desc {
			// β = '//': ε from cur to a fresh self-looping state.
			id := len(m.States)
			m.States = append(m.States, State{ID: id, SelfLoop: true, Next: -1, Eps: -1, QualID: m.LQ.True()})
			m.States[cur].Eps = id
			cur = id
			continue
		}
		qid, err := m.LQ.AddQuals(s.quals)
		if err != nil {
			return nil, err
		}
		id := len(m.States)
		m.States = append(m.States, State{ID: id, Quals: s.quals, QualID: qid, Next: -1, Eps: -1})
		st := &m.States[cur]
		st.Next = id
		st.NextLabel = s.label
		st.NextWild = s.wild
		cur = id
	}
	// A trailing '//' would leave cur on a self-loop state; the parser
	// cannot produce it, but guard anyway.
	if m.States[cur].SelfLoop {
		return nil, errors.New("automaton: selection path ends in '//'")
	}
	m.Final = cur
	m.States[cur].Final = true
	return m, nil
}

// Size returns the number of states; it is O(|p|) as claimed in §3.4.
func (m *NFA) Size() int { return len(m.States) }

// StateSet is a bit set over the NFA's states.
type StateSet []uint64

// NewSet returns an empty state set sized for m.
func (m *NFA) NewSet() StateSet {
	return make(StateSet, (len(m.States)+63)/64)
}

// Add inserts state id.
func (s StateSet) Add(id int) { s[id/64] |= 1 << (uint(id) % 64) }

// Has reports membership of state id.
func (s StateSet) Has(id int) bool { return s[id/64]&(1<<(uint(id)%64)) != 0 }

// Empty reports whether no state is set.
func (s StateSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s StateSet) Clone() StateSet {
	c := make(StateSet, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two sets hold the same states.
func (s StateSet) Equal(o StateSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// IDs returns the member state ids in ascending order.
func (s StateSet) IDs() []int {
	var out []int
	s.ForEach(func(id int) { out = append(out, id) })
	return out
}

// ForEach calls fn for every member state id in ascending order, without
// allocating; it is the hot-path iterator of the evaluators.
func (s StateSet) ForEach(fn func(id int)) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			fn(w*64 + b)
		}
	}
}

// addEps adds id and its ε-closure to set. ε-targets are '//' states whose
// qualifier is [true] by construction, so no checking is needed — this is
// the ε-closure step of nextStates() (Fig. 4).
func (m *NFA) addEps(set StateSet, id int) {
	for id >= 0 {
		if set.Has(id) {
			return
		}
		set.Add(id)
		id = m.States[id].Eps
	}
}

// InitialSet returns the ε-closure of the start state — the state set in
// force at the document node, before any label has been consumed.
func (m *NFA) InitialSet() StateSet {
	s := m.NewSet()
	m.addEps(s, m.Start)
	return s
}

// Step implements nextStates() of Fig. 4: from state set s, consume an
// element labelled label. keep is the checkp() hook deciding whether a
// candidate target state's qualifier holds at the node being consumed; a
// nil keep accepts every candidate, which yields the unchecked transition
// relation used by the bottomUp pass (Fig. 9, lines 1-2).
func (m *NFA) Step(s StateSet, label string, keep func(stateID int) bool) StateSet {
	out := m.NewSet()
	m.StepInto(s, label, keep, out)
	return out
}

// StepInto is Step writing into out (cleared first), for per-element hot
// loops that reuse state-set storage.
func (m *NFA) StepInto(s StateSet, label string, keep func(stateID int) bool, out StateSet) {
	for i := range out {
		out[i] = 0
	}
	s.ForEach(func(id int) {
		st := &m.States[id]
		if st.SelfLoop {
			// The '*' self-cycle consumes any element.
			m.addEps(out, id)
		}
		if st.Next >= 0 && (st.NextWild || st.NextLabel == label) {
			if keep == nil || keep(st.Next) {
				m.addEps(out, st.Next)
			}
		}
	})
}

// StepDirect consumes element n checking qualifiers by direct recursive
// evaluation (the GENTOP strategy).
func (m *NFA) StepDirect(s StateSet, n *tree.Node) StateSet {
	return m.Step(s, n.Label, func(id int) bool {
		for _, q := range m.States[id].Quals {
			if !xpath.EvalQual(n, q) {
				return false
			}
		}
		return true
	})
}

// Matches reports whether consuming the node that produced s selected it,
// i.e. whether the final state was entered.
func (m *NFA) Matches(s StateSet) bool { return s.Has(m.Final) }

// EnteredQuals returns the qualifier ids (into m.LQ) of the states entered
// by consuming an element labelled label from state set s, without
// checking them — the top-level qualifiers that must be evaluated at that
// node by the bottom-up pass.
func (m *NFA) EnteredQuals(s StateSet, label string) []int {
	var out []int
	s.ForEach(func(id int) {
		st := &m.States[id]
		if st.Next >= 0 && (st.NextWild || st.NextLabel == label) {
			if len(m.States[st.Next].Quals) > 0 {
				out = append(out, m.States[st.Next].QualID)
			}
		}
	})
	return out
}

// String renders the automaton for diagnostics, in the spirit of Fig. 5.
func (m *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA(%s) states=%d\n", m.Path.String(), len(m.States))
	for i := range m.States {
		st := &m.States[i]
		fmt.Fprintf(&b, "  s%d", st.ID)
		if st.ID == m.Start {
			b.WriteString(" start")
		}
		if st.Final {
			b.WriteString(" final")
		}
		if len(st.Quals) > 0 {
			fmt.Fprintf(&b, " [%s]", m.LQ.String(st.QualID))
		}
		if st.SelfLoop {
			b.WriteString(" -*→ self")
		}
		if st.Next >= 0 {
			lbl := st.NextLabel
			if st.NextWild {
				lbl = "*"
			}
			fmt.Fprintf(&b, " -%s→ s%d", lbl, st.Next)
		}
		if st.Eps >= 0 {
			fmt.Fprintf(&b, " -ε→ s%d", st.Eps)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
