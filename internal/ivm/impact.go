// Package ivm implements incremental view maintenance over the
// versioned store: static impact analysis of updates against
// registered view stacks (automaton intersection, per Solimando et
// al.), maintained materializations that are delta-updated or kept
// verbatim across commits, and a change-feed hub that turns commits
// into subscriber events for the /watch endpoint.
//
// Store commits are persistent path copies (tree.PathCopy): subtrees
// an update does not touch keep their node pointers and ordinals
// across versions of a snapshot chain. Maintenance code that caches
// per-node state across commits keys it by the *Node pointer, which is
// the node's identity within a chain (Index.Contains answers whether a
// version still owns it); when a chain compacts, Freeze copies every
// node and pointer-keyed state from the old chain no longer matches.
package ivm

import (
	"xtq/internal/automaton"
	"xtq/internal/core"
)

// Verdict is the result of statically analyzing one update against one
// view stack.
type Verdict uint8

const (
	// VerdictUnknown means the analysis could not decide — the view has
	// qualifiers, or the product exploration exceeded its state cap.
	// Maintenance treats unknown like affected; the distinction is
	// reported in ViewStats.
	VerdictUnknown Verdict = iota
	// VerdictUnaffected means the update provably cannot change the
	// view's materialization: every node it touches is deleted or
	// replaced away by the view's first layer.
	VerdictUnaffected
	// VerdictAffected means the update may change the view.
	VerdictAffected
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictUnaffected:
		return "unaffected"
	case VerdictAffected:
		return "affected"
	default:
		return "unknown"
	}
}

// VerdictCache caches Analyze results keyed by the canonical renderings
// of (view stack, update) — the adapter over the engine's LRU.
type VerdictCache interface {
	Get(key string) (Verdict, bool)
	Add(key string, v Verdict)
}

// Analyze decides whether the update can affect the view stack's
// materialization. Soundness is one-directional: VerdictUnaffected is
// a proof, the other verdicts are over-approximations.
//
// Only the stack's first layer can absorb an update — it is the one
// whose selection runs over document root paths, the alphabet the
// update's automaton shares. The absorption argument is per update
// kind, with w the root path of an updated node:
//
//   - update Delete under view Delete: covered if some prefix of w
//     (including w itself) is view-selected — the region is already
//     gone from the view.
//   - update Insert under view Delete: the inserted element's path is
//     w·label(e); covered if a prefix of it (including the inserted
//     element itself) is deleted by the view.
//   - update Insert under view Replace: covered only at or above w —
//     the view replacing the inserted element itself would add the
//     replacement constant to the output.
//   - update Replace/Rename: covered only strictly above w. At w the
//     node's label or content changes, so a view match at w in the old
//     document does not carry over (a renamed node escapes a deletion;
//     a replaced node's replacement constant need not be re-matched).
//   - update Delete under view Replace: covered strictly above w —
//     deleting w itself removes the view's replacement constant from
//     the output.
//
// Qualifiers on the update path are ignored (a sound widening);
// qualifiers on the view's first layer make the verdict unknown.
func Analyze(layers []*core.Compiled, upd *core.Compiled) Verdict {
	if len(layers) == 0 || upd == nil {
		return VerdictAffected
	}
	v0 := layers[0]
	vu := &v0.Query.Update
	if vu.Op != core.Delete && vu.Op != core.Replace {
		// Insert/Rename layers hide nothing: every document change
		// shows through.
		return VerdictAffected
	}
	if v0.NFA.HasQualifiers() {
		return VerdictUnknown
	}
	var (
		strict      bool
		insertLabel string
	)
	switch upd.Query.Update.Op {
	case core.Insert:
		if vu.Op == core.Delete {
			insertLabel = upd.Query.Update.Elem.Label
		}
		// Under view Replace: plain at-or-below on w (strict false).
	case core.Delete:
		strict = vu.Op == core.Replace
	case core.Replace, core.Rename:
		strict = true
	}
	covered, ok := automaton.Covered(upd.NFA, v0.NFA, strict, insertLabel, 0)
	if !ok {
		return VerdictUnknown
	}
	if covered {
		return VerdictUnaffected
	}
	return VerdictAffected
}
