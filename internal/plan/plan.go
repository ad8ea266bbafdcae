// Package plan is the cost-based method planner: given a compiled
// transform query and the statistics of the document version it will
// run against (internal/stats), it estimates the node-visit cost of
// each in-memory evaluation method and picks the cheapest. The model
// follows the paper's analysis of the methods (§3, §6): the guided
// top-down walk (GENTOP) visits only the frontier the selecting NFA
// keeps alive, paying a per-candidate price to re-walk qualifiers; the
// two-pass method (TD-BU) pays one full bottom-up pass over the
// document to annotate qualifier truth values and then a top-down pass
// with O(1) qualifier checks; the naive rewriting method and the
// copy-then-update baseline touch the whole document a constant number
// of times regardless of the query.
//
// Estimates are deliberately coarse — per-label counts, the average
// fanout and the document size are all the statistics carry — but the
// decision only needs the right order of magnitude: the methods it
// arbitrates differ by whole document passes, not by percents. The
// acceptance bar (Auto within 25% of the best static method, estimated
// visits within 10x of actual) is enforced by the planner property
// tests (TestPlannerProperty in the root package).
package plan

import (
	"fmt"

	"xtq/internal/core"
	"xtq/internal/stats"
	"xtq/internal/tree"
	"xtq/internal/xpath"
)

// Model constants: per-visit cost weights relative to one guided
// top-down visit, calibrated against the XMark method sweeps
// (go test -bench 'Fig1[23]'): topdown beats twopass on every measured
// (query, factor) cell — the bottom-up pass evaluates the QualDP
// recurrence at every node, which is worth roughly 1.6 plain visits —
// and naive and copyupdate trail by whole passes.
const (
	// twoPassNodeCost weighs one bottom-up QualDP visit.
	twoPassNodeCost = 1.6
	// naivePasses approximates the rewriting method's repeated
	// whole-document traversals (rewrite + evaluate + stitch).
	naivePasses = 3.0
	// copyPasses approximates snapshot-copy plus in-place update,
	// with the copy's allocation overhead folded in.
	copyPasses = 2.5
	// qualReWalk is the per-candidate price of re-walking one
	// qualifier step in the guided top-down method, in visits.
	qualReWalk = 1.0
	// descQualFactor inflates qualifier re-walk cost when the
	// qualifier itself contains a '//' step: the re-walk then scans
	// the candidate's whole subtree rather than a bounded path.
	descQualFactor = 4.0
)

// Decision is the planner's verdict for one (query, document version)
// pair: the method to run, the estimated node visits of that method
// (comparable to the observability layer's visited-node counters), its
// model cost in visit units, and a one-line justification for EXPLAIN.
type Decision struct {
	Method   core.Method
	EstNodes int64
	EstCost  float64
	Reason   string
}

// Estimate is one method's predicted cost.
type Estimate struct {
	Method core.Method
	// Nodes is the predicted visited-node count, aligned with what the
	// evaluator's visit counters (obs trace) report for this method.
	Nodes int64
	// Cost is the model cost in guided-visit units: Nodes weighted by
	// the method's per-visit constant plus method-fixed overheads.
	Cost float64
}

// pathShape is what the estimator extracts from the compiled query's
// selecting NFA against one document's statistics.
type pathShape struct {
	// scan is the total number of nodes the guided top-down walk
	// examines to feed all transitions (frontier expansion).
	scan float64
	// qual is the extra per-candidate qualifier re-walk cost the
	// guided method pays (the two-pass method replaces it with the
	// bottom-up annotation pass).
	qual float64
	// selected is the estimated cardinality of the selected set.
	selected float64
	// descs counts '//' transitions, quals counts qualified ones.
	descs, quals int
}

// shape runs the cardinality propagation: for each consuming transition
// of the selecting NFA, the frontier it can produce is the per-label
// element count (the statistics cannot localize labels, so the global
// count is the estimate), and the nodes scanned to feed it is the
// children of the previous frontier for a child step — at least
// frontier x average-fanout, at least the label count itself (hub nodes
// like XMark's <people> have fanouts far above the average, and every
// eventual match must have been scanned) — or, for a descendant step,
// the subtree mass below the frontier, taken from the depth histogram:
// of the nodes deeper than the frontier's depth, the fraction of that
// depth level the frontier covers. A frontier that dies (a label the
// document does not contain) zeroes everything downstream, exactly like
// the evaluator's early exit.
func shape(c *core.Compiled, d stats.Doc) pathShape {
	var sh pathShape
	fanout := d.Fanout()
	frontier := 1.0 // the document node
	depth := 0
	sh.scan = 1
	for _, t := range c.NFA.Transitions() {
		var card float64
		if t.Wild {
			card = float64(d.Elems())
		} else {
			card = float64(d.Count(t.Label))
		}
		var scanned float64
		if t.Desc {
			sh.descs++
			below := float64(d.BelowDepth(depth))
			cover := 1.0
			if at := float64(d.AtDepth(depth)); at > frontier && at > 0 {
				cover = frontier / at
			}
			scanned = below * cover
			if scanned < frontier*fanout {
				scanned = frontier * fanout
			}
		} else {
			scanned = frontier * fanout
			if card > scanned {
				scanned = card
			}
		}
		depth++
		if frontier == 0 {
			card, scanned = 0, 0
		}
		sh.scan += scanned
		if t.Qualified {
			sh.quals++
			sh.qual += card * qualCost(t.Quals, fanout)
		}
		frontier = card
	}
	sh.selected = frontier
	return sh
}

// qualCost estimates the guided method's per-candidate re-walk cost of
// a qualifier list, in visits: each path leaf costs its step count
// scaled by the fanout (the re-walk tries every child per step), with
// descendant steps inflating the whole qualifier to a subtree scan.
func qualCost(quals []xpath.Qual, fanout float64) float64 {
	var cost float64
	for _, q := range quals {
		cost += qualLeafCost(q, fanout)
	}
	if cost < 1 {
		cost = 1
	}
	return cost
}

func qualLeafCost(q xpath.Qual, fanout float64) float64 {
	switch q := q.(type) {
	case *xpath.PathQual:
		return qualPathCost(q.Path, fanout)
	case *xpath.CmpQual:
		return qualPathCost(q.Path, fanout)
	case *xpath.AndQual:
		return qualLeafCost(q.L, fanout) + qualLeafCost(q.R, fanout)
	case *xpath.OrQual:
		return qualLeafCost(q.L, fanout) + qualLeafCost(q.R, fanout)
	case *xpath.NotQual:
		return qualLeafCost(q.X, fanout)
	default: // LabelQual, TrueQual: O(1) tests.
		return 0.5
	}
}

func qualPathCost(p *xpath.Path, fanout float64) float64 {
	if p == nil {
		return qualReWalk
	}
	cost := qualReWalk
	for _, s := range p.Steps {
		switch s.Axis {
		case xpath.Attribute:
			cost += 0.5
		case xpath.DescendantOrSelf:
			cost = cost * descQualFactor
			cost += fanout
		default:
			cost += fanout
		}
		for _, q := range s.Quals {
			cost += qualLeafCost(q, fanout)
		}
	}
	return cost
}

// EstimateMethod predicts the visited-node count and model cost of
// running c against the document described by d with method m.
func EstimateMethod(c *core.Compiled, d stats.Doc, m core.Method) Estimate {
	n := float64(d.Nodes())
	if !d.Valid() || c == nil || c.NFA == nil {
		// No statistics: every method degrades to "touches the whole
		// document once or more"; rank by pass constants only.
		return Estimate{Method: m, Nodes: int64(n), Cost: passCost(m) * maxf(n, 1)}
	}
	sh := shape(c, d)
	switch m {
	case core.MethodTopDown:
		// The qualifier re-walk visits nodes too (checkp runs the
		// direct evaluator under the same cancellation counter), so it
		// counts into the visit estimate, not just the cost.
		v := sh.scan + sh.qual
		return Estimate{Method: m, Nodes: ceil64(v), Cost: v}
	case core.MethodTwoPass:
		// The bottom-up pass visits every node; the guided second pass
		// re-scans the frontier with O(1) qualifier checks.
		v := n + sh.scan
		return Estimate{Method: m, Nodes: ceil64(v), Cost: twoPassNodeCost*n + sh.scan}
	case core.MethodNaive:
		v := naivePasses * n
		return Estimate{Method: m, Nodes: ceil64(v), Cost: v + sh.qual}
	case core.MethodCopyUpdate:
		v := 2 * n
		return Estimate{Method: m, Nodes: ceil64(v), Cost: copyPasses * n}
	default:
		return Estimate{Method: m, Nodes: int64(n), Cost: passCost(core.MethodTopDown) * maxf(n, 1)}
	}
}

func passCost(m core.Method) float64 {
	switch m {
	case core.MethodTwoPass:
		return twoPassNodeCost + 1
	case core.MethodNaive:
		return naivePasses
	case core.MethodCopyUpdate:
		return copyPasses
	default:
		return 1
	}
}

// Estimates returns the per-method estimates for c over d, in
// core.Methods() order.
func Estimates(c *core.Compiled, d stats.Doc) []Estimate {
	ms := core.Methods()
	out := make([]Estimate, 0, len(ms))
	for _, m := range ms {
		out = append(out, EstimateMethod(c, d, m))
	}
	return out
}

// Choose picks the cheapest method for running c against the document
// version indexed by ix, recording the decision in the planner metrics.
// A nil index or compiled query falls back to the engine default
// (topdown) with a degenerate estimate.
func Choose(c *core.Compiled, ix *tree.Index) Decision {
	dec := WouldChoose(c, ix)
	RecordDecision(dec.Method)
	return dec
}

// WouldChoose is Choose without the metrics side effect — for layers
// reporting what the planner would have picked when a forced ?method=
// overrode it (the decision was not used, so it must not count).
func WouldChoose(c *core.Compiled, ix *tree.Index) Decision {
	d := stats.Of(ix)
	if !d.Valid() || c == nil || c.NFA == nil {
		return Decision{
			Method:   core.MethodTopDown,
			EstNodes: int64(d.Nodes()),
			EstCost:  maxf(float64(d.Nodes()), 1),
			Reason:   "no statistics: defaulting to guided top-down",
		}
	}
	ests := Estimates(c, d)
	best := ests[0]
	for _, e := range ests[1:] {
		// Ties go to the later entry: Methods() orders topdown last, so
		// equal costs resolve to the paper's best general method.
		if e.Cost <= best.Cost {
			best = e
		}
	}
	sh := shape(c, d)
	return Decision{
		Method:   best.Method,
		EstNodes: best.Nodes,
		EstCost:  best.Cost,
		Reason:   reason(best.Method, sh, d),
	}
}

// reason renders a one-line justification for EXPLAIN output.
func reason(m core.Method, sh pathShape, d stats.Doc) string {
	n := d.Nodes()
	switch m {
	case core.MethodTopDown:
		if sh.quals == 0 {
			return fmt.Sprintf("no qualifiers: guided walk scans ~%d of %d nodes", ceil64(sh.scan), n)
		}
		return fmt.Sprintf("guided walk scans ~%d of %d nodes; qualifier re-walk (~%d visits) cheaper than a full bottom-up pass", ceil64(sh.scan), n, ceil64(sh.qual))
	case core.MethodTwoPass:
		return fmt.Sprintf("qualifier re-walk (~%d visits) would dominate: one bottom-up pass over %d nodes annotates all %d qualified steps", ceil64(sh.qual), n, sh.quals)
	case core.MethodNaive:
		return "rewriting estimated cheapest"
	case core.MethodCopyUpdate:
		return "whole-document copy estimated cheapest"
	default:
		return ""
	}
}

func ceil64(v float64) int64 {
	i := int64(v)
	if float64(i) < v {
		i++
	}
	if i < 1 {
		i = 1
	}
	return i
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
