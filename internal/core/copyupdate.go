package core

import (
	"context"

	"xtq/internal/tree"
	"xtq/internal/xerr"
)

// EvalCopyUpdate is the copy-and-update baseline: snapshot the document,
// then destructively apply the embedded update to the copy. This is the
// strategy the paper attributes to engines with native update support
// ("GalaXUpdate" in §7: "Galax implements transform queries by taking a
// snapshot of XML files"); it always costs Θ(|T|) time and space, which is
// why it loses to the automaton methods whenever the update touches a
// small part of the document.
func EvalCopyUpdate(ctx context.Context, c *Compiled, doc *tree.Node) (*tree.Node, error) {
	// The snapshot and the in-place application are both monolithic
	// library calls, so cancellation is honoured between the two phases
	// rather than at node granularity.
	snapshot := doc.DeepCopy()
	if ctx != nil && ctx.Err() != nil {
		return nil, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	// The deep copy is never indexed: it is mutated in place, and a
	// node's index stamp is never rewritten.
	if err := c.Query.Update.Validate(); err != nil {
		return nil, err
	}
	c.Query.Update.apply(snapshot)
	return snapshot, nil
}
