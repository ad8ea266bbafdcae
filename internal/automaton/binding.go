package automaton

import (
	"math/bits"

	"xtq/internal/tree"
)

// Binding resolves an NFA's labelled transitions against one document's
// symbol table, so stepping compares dense tree.SymIDs instead of label
// strings. A compiled query (and its NFA) is cached across documents,
// while symbol ids are per document — the binding is the per-document
// half, built at the Prepare/Eval boundary in O(states) time.
//
// Symbols the binding cannot resolve keep working through a string
// fallback: a consumed node whose own symbol is NoSym (a virtual label
// introduced by a rename or a constant element, never interned into the
// document's table) is matched by comparing NextLabel directly. Nodes of
// an indexed document always carry a valid symbol, so the fallback never
// fires on the in-memory hot paths.
type Binding struct {
	// M is the bound automaton.
	M *NFA
	// Syms is the bound symbol table; per-symbol caches size their rows
	// by its Len.
	Syms *tree.Symbols
	// st[id] is what the binding knows of state id (see stateBind).
	st []stateBind
}

// stateBind is one state's half of a Binding. sym is the symbol of
// States[id].NextLabel in the bound table, or NoSym when the state has
// no labelled transition or the table has never seen the label (such a
// transition can only fire through the string fallback). acc is the
// label mask (tree.SymBit, as in tree.Index.Below) of every
// transition into the final state reachable from the state: the labels
// a node below one holding the state must carry to be selected. A
// wildcard into the final state sets every bit; a label the table has
// never seen sets NoSym's bit, which only a collision or a node of
// another index — whose ancestors' masks have every bit set — can match.
type stateBind struct {
	sym tree.SymID
	acc uint64
}

// Bind resolves m against a frozen symbol table (an indexed document's).
// It performs lookups only — the table is never mutated, so one frozen
// table may be bound by any number of concurrent evaluations.
func (m *NFA) Bind(syms *tree.Symbols) *Binding {
	return m.bind(syms, syms.Lookup)
}

// BindIntern resolves m against a growing table the caller owns — the
// streaming parse path, where document names keep arriving after the
// binding is built. Interning the query's labels up front guarantees
// every one of them has an id, so later transitions resolve by integer
// comparison no matter when (or whether) the document first uses the
// label.
func (m *NFA) BindIntern(syms *tree.Symbols) *Binding {
	return m.bind(syms, syms.Intern)
}

// bind resolves every labelled transition through sym and folds the
// acc masks backwards: every transition New builds, labelled or ε,
// leads to a later state, so a state's successors are final before it.
func (m *NFA) bind(syms *tree.Symbols, sym func(string) tree.SymID) *Binding {
	b := &Binding{M: m, Syms: syms, st: make([]stateBind, len(m.States))}
	for i := range m.States {
		if st := &m.States[i]; st.Next >= 0 && !st.NextWild && st.NextLabel != "" {
			b.st[i].sym = sym(st.NextLabel)
		}
	}
	for i := len(m.States) - 1; i >= 0; i-- {
		st, sb := &m.States[i], &b.st[i]
		if st.Next >= 0 {
			sb.acc |= b.st[st.Next].acc
			if st.Next == m.Final {
				sb.acc |= tree.SymBit(sb.sym)
				if st.NextWild {
					sb.acc = ^uint64(0)
				}
			}
		}
		if st.Eps >= 0 {
			sb.acc |= b.st[st.Eps].acc
		}
	}
	return b
}

// Needed returns the OR of acc over s: the labels some node strictly
// below a node holding s must carry for the update to select it. When
// Needed(s) & idx.Below(n) is 0, no descendant of n can be selected.
func (b *Binding) Needed(s StateSet) uint64 {
	var need uint64
	for w, word := range s {
		for word != 0 {
			need |= b.st[w*64+bits.TrailingZeros64(word)].acc
			word &= word - 1
		}
	}
	return need
}

// matches reports whether state id's labelled transition fires on a node
// with the given symbol (string fallback for NoSym).
func (b *Binding) matches(id int, sym tree.SymID, label string) bool {
	st := &b.M.States[id]
	if st.Next < 0 {
		return false
	}
	if st.NextWild {
		return true
	}
	if sym != tree.NoSym {
		return b.st[id].sym == sym
	}
	return st.NextLabel == label
}

// StepInto is NFA.StepInto resolving the label test through the binding:
// from state set s, consume an element carrying sym (and label, used only
// when sym is NoSym), writing the successor set into out (cleared first).
// keep is the checkp() hook; nil accepts every candidate.
func (b *Binding) StepInto(s StateSet, sym tree.SymID, label string, keep func(stateID int) bool, out StateSet) {
	for i := range out {
		out[i] = 0
	}
	m := b.M
	s.ForEach(func(id int) {
		st := &m.States[id]
		if st.SelfLoop {
			m.addEps(out, id)
		}
		if b.matches(id, sym, label) {
			if keep == nil || keep(st.Next) {
				m.addEps(out, st.Next)
			}
		}
	})
}

// EnteredQualsInto appends to buf the qualifier ids (into M.LQ) of the
// states entered by consuming an element with sym/label from s, without
// checking them — the top-level qualifiers the bottom-up passes must
// evaluate at that node. It returns the extended buf, so per-depth
// callers can reuse storage.
func (b *Binding) EnteredQualsInto(s StateSet, sym tree.SymID, label string, buf []int) []int {
	m := b.M
	s.ForEach(func(id int) {
		if b.matches(id, sym, label) {
			next := m.States[id].Next
			if len(m.States[next].Quals) > 0 {
				buf = append(buf, m.States[next].QualID)
			}
		}
	})
	return buf
}
