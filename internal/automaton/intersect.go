// Static impact analysis over selecting NFAs: a product construction
// deciding whether every node an update can select is "absorbed" by a
// view's selection — the automata-intersection idea of Solimando et al.
// ("Automata-based Static Analysis of XML Document Adaptation") applied
// to the paper's chain automata of §3.4.
//
// Both automata run over root paths: a word a1…an is the sequence of
// element labels from the document root down to a node. The update's
// NFA u describes which nodes a commit touches; the view's NFA v
// describes which nodes the view's first layer deletes or replaces. If
// every u-selected word is provably at or below a v-selected node, the
// touched region is invisible to the view's output and the view is
// statically unaffected by the commit.
//
// Qualifiers are ignored on both sides (Step with keep == nil), which
// makes u accept a superset of the really-touched words — sound for
// coverage, since covering the superset covers the real set. Callers
// that need qualifier precision on v must not use this analysis (the
// ivm layer reports such views as unknown).
package automaton

import "encoding/binary"

// DefaultCoverCap bounds the number of product states Covered explores
// before giving up. Chain automata keep the product tiny (|u|·|v|
// subset pairs in practice); the cap only guards adversarial inputs.
const DefaultCoverCap = 4096

// Covered reports whether every word accepted by u is absorbed by v:
//
//   - strict == false ("at or below"): some prefix of the word,
//     including the word itself, is accepted by v;
//   - strict == true ("strictly below"): some proper prefix is
//     accepted by v.
//
// A non-empty insertLabel switches to the insert refinement (strict is
// ignored): the word under test becomes w·insertLabel for every
// u-accepted w — the root path of an element inserted as a child of a
// selected node — and absorption may also happen at that appended
// position (v deleting the inserted element hides its whole subtree).
//
// ok is false when the exploration exceeded capStates product states
// (capStates <= 0 uses DefaultCoverCap); covered is then meaningless
// and the caller should fall back to "unknown".
//
// The alphabet is the set of labels tested by either automaton plus a
// single fresh symbol: transitions only compare labels for equality
// (or accept anything via '*'/self-loops), so all labels outside the
// tested set behave identically and one representative suffices.
func Covered(u, v *NFA, strict bool, insertLabel string, capStates int) (covered, ok bool) {
	if capStates <= 0 {
		capStates = DefaultCoverCap
	}
	alphabet := coverAlphabet(u, v)

	// Product states are (Su, Sv) pairs with an implicit absorbed=false
	// flag: once a prefix is v-accepted, no extension can be a
	// counterexample in any mode, so absorbed branches are pruned
	// instead of tracked. Likewise Su = ∅ can never reach a u-final
	// word again and is pruned.
	type pair struct {
		su, sv StateSet
	}
	start := pair{u.InitialSet(), v.InitialSet()}
	// The empty word is never accepted: final states are consuming
	// states and unreachable through ε-closure alone.
	visited := map[string]bool{coverKey(start.su, start.sv): true}
	queue := []pair{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, a := range alphabet {
			su := u.Step(cur.su, a, nil)
			if su.Empty() {
				// Quick reject before paying for the v step: an empty
				// u-set can neither accept nor recover (Step(∅) = ∅).
				continue
			}
			sv := v.Step(cur.sv, a, nil)
			matchNow := v.Matches(sv)
			if u.Matches(su) {
				// cur has absorbed=false by construction, so the only
				// prefix that can save the word is the one just read
				// (or, in insert mode, the appended insert label).
				switch {
				case insertLabel != "":
					sve := v.Step(sv, insertLabel, nil)
					if !matchNow && !v.Matches(sve) {
						return false, true
					}
				case strict:
					return false, true
				default:
					if !matchNow {
						return false, true
					}
				}
			}
			if matchNow {
				continue // absorbed: no extension can go bad
			}
			k := coverKey(su, sv)
			if visited[k] {
				continue
			}
			if len(visited) >= capStates {
				return false, false
			}
			visited[k] = true
			queue = append(queue, pair{su, sv})
		}
	}
	return true, true
}

// coverAlphabet returns the labels tested by any transition of the
// given automata plus one fresh symbol standing in for "every other
// label". "\x00" cannot occur in an XML element name, so it is always
// fresh.
func coverAlphabet(ms ...*NFA) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range ms {
		for i := range m.States {
			st := &m.States[i]
			if st.Next >= 0 && !st.NextWild && !seen[st.NextLabel] {
				seen[st.NextLabel] = true
				out = append(out, st.NextLabel)
			}
		}
	}
	return append(out, "\x00")
}

// coverKey encodes a product state for the visited set. Both bitsets
// have a fixed word count per automaton, so plain concatenation is
// unambiguous.
func coverKey(su, sv StateSet) string {
	b := make([]byte, 8*(len(su)+len(sv)))
	for i, w := range su {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	off := 8 * len(su)
	for i, w := range sv {
		binary.LittleEndian.PutUint64(b[off+i*8:], w)
	}
	return string(b)
}

// HasQualifiers reports whether any state of the NFA carries a
// qualifier — the condition that rules out the coverage analysis above
// on the view side, and that starts a new segment of compose's fused
// stack evaluator at a layer above the first.
func (m *NFA) HasQualifiers() bool {
	for i := range m.States {
		if len(m.States[i].Quals) > 0 {
			return true
		}
	}
	return false
}
