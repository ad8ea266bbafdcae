// Package plan resolves the MethodAuto directive for one evaluation and
// records the decision. The rule is structural, not cost-based: auto
// runs the guided top-down method (GENTOP), which the paper's §7 finds
// the best general method and which won every (query, document) cell
// the repository's method sweeps have measured
// (go test -run '^$' -bench 'Fig1[23]' .). core.Resolve holds the rule;
// this package names it for EXPLAIN and counts it on /metrics.
package plan

import (
	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/tree"
)

// rule is the reason every decision carries: the name of the rule that
// made it.
const rule = "auto runs guided top-down (GENTOP), the paper's best general method (§7)"

// mDecisions counts auto resolutions per concrete method on the
// process-wide registry.
var mDecisions = obs.Default.CounterVec("xtq_plan_decisions_total",
	"Method decisions for evaluations run with method=auto.", "method")

// Decision is the verdict for one (query, document version) pair: the
// concrete method to run and a one-line justification for EXPLAIN.
type Decision struct {
	Method core.Method
	Reason string
}

// Choose resolves MethodAuto for running c against the document version
// indexed by ix and counts the decision in xtq_plan_decisions_total. The
// rule reads neither argument.
func Choose(c *core.Compiled, ix *tree.Index) Decision {
	m := core.Resolve(core.MethodAuto)
	mDecisions.With(string(m)).Inc()
	return Decision{Method: m, Reason: rule}
}
