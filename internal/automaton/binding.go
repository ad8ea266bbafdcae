package automaton

import "xtq/internal/tree"

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
	// nextSym[id] is the symbol of States[id].NextLabel in the bound
	// table, or NoSym when the state has no labelled transition or the
	// table has never seen the label (such a transition can only fire
	// through the string fallback).
	nextSym []tree.SymID
}

// Bind resolves m against a frozen symbol table (an indexed document's).
// It performs lookups only — the table is never mutated, so one frozen
// table may be bound by any number of concurrent evaluations.
func (m *NFA) Bind(syms *tree.Symbols) *Binding {
	b := &Binding{M: m, Syms: syms, nextSym: make([]tree.SymID, len(m.States))}
	for i := range m.States {
		st := &m.States[i]
		if st.Next >= 0 && !st.NextWild && st.NextLabel != "" {
			b.nextSym[i] = syms.Lookup(st.NextLabel)
		}
	}
	return b
}

// BindIntern resolves m against a growing table the caller owns — the
// streaming parse path, where document names keep arriving after the
// binding is built. Interning the query's labels up front guarantees
// every one of them has an id, so later transitions resolve by integer
// comparison no matter when (or whether) the document first uses the
// label.
func (m *NFA) BindIntern(syms *tree.Symbols) *Binding {
	b := &Binding{M: m, Syms: syms, nextSym: make([]tree.SymID, len(m.States))}
	for i := range m.States {
		st := &m.States[i]
		if st.Next >= 0 && !st.NextWild && st.NextLabel != "" {
			b.nextSym[i] = syms.Intern(st.NextLabel)
		}
	}
	return b
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
		return b.nextSym[id] == sym
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
