package automaton

import (
	"xtq/internal/tree"
	"xtq/internal/xpath"
)

// Config is an interned node configuration of the unchecked automaton:
// the state set in force for a node's children plus the qualifier work at
// the node itself. Because the unchecked transition depends only on the
// parent's configuration and the element's label, documents hit a small
// number of distinct configurations, and memoizing them turns the
// per-element work of the bottom-up passes — nextStates, EnteredQuals,
// the LQ closure and the child-needs propagation of §5 — into a single
// dense array lookup. Both SAX passes of twoPassSAX derive identical
// configuration sequences from identical (parent, label) streams, which
// is what keeps their qualifier-log cursors in sync.
//
// A Config is immutable once returned by Step; treat all fields as
// read-only.
type Config struct {
	// ID is the dense configuration id within its cache.
	ID int
	// Next is the unchecked successor state set (Fig. 9 lines 1-2).
	Next StateSet
	// QualIDs are the top-level qualifiers (ids into the NFA's LQ)
	// evaluated at this node, in state order.
	QualIDs []int
	// EvalIDs is the sub-expression closure run through QualDP here.
	EvalIDs []int
	// ChildNeeds are the qualifier ids the node's children must provide
	// (the list LQ(S') descent of §5).
	ChildNeeds []int
	// Pruned marks a dead configuration: no automaton state alive and no
	// qualifier pending, so the whole subtree is irrelevant (Fig. 9
	// line 6).
	Pruned bool
}

// ConfigCache interns configurations and memoizes their transitions. The
// transition table is a dense per-symbol slice per configuration —
// trans[cfg.ID][sym] — so steady-state processing of an element is one
// bounds-checked load; labels without a symbol (virtual labels on
// composed views) go through a small string-keyed spill map instead.
//
// A cache belongs to one evaluation or one parse: it is not safe for
// concurrent use.
type ConfigCache struct {
	b    *Binding
	lq   *xpath.LQ
	root *Config

	configs []*Config
	trans   [][]*Config // trans[parent.ID][sym], rows allocated lazily
	spill   map[spillKey]*Config

	rootsBuf []int // scratch for Step
}

type spillKey struct {
	parent int
	label  string
}

// NewConfigCache returns a cache for stepping b's automaton.
func NewConfigCache(b *Binding) *ConfigCache {
	c := &ConfigCache{b: b, lq: b.M.LQ}
	c.root = &Config{ID: 0, Next: b.M.InitialSet()}
	c.configs = []*Config{c.root}
	c.trans = [][]*Config{nil}
	return c
}

// Root returns the document-node configuration: the initial state set with
// no pending qualifiers.
func (c *ConfigCache) Root() *Config { return c.root }

// Step returns the configuration for an element carrying sym (and label,
// consulted only when sym is NoSym) whose parent has configuration p.
func (c *ConfigCache) Step(p *Config, sym tree.SymID, label string) *Config {
	if sym != tree.NoSym {
		row := c.trans[p.ID]
		if int(sym) < len(row) {
			if cfg := row[sym]; cfg != nil {
				return cfg
			}
		}
		cfg := c.build(p, sym, label)
		c.store(p.ID, sym, cfg)
		return cfg
	}
	k := spillKey{parent: p.ID, label: label}
	if cfg, ok := c.spill[k]; ok {
		return cfg
	}
	cfg := c.build(p, sym, label)
	if c.spill == nil {
		c.spill = make(map[spillKey]*Config)
	}
	c.spill[k] = cfg
	return cfg
}

// store records a transition, growing the parent's per-symbol row to the
// current table size (symbol tables keep growing during streaming
// parses, so rows are sized generously to avoid repeated regrowth).
func (c *ConfigCache) store(parent int, sym tree.SymID, cfg *Config) {
	row := c.trans[parent]
	if int(sym) >= len(row) {
		size := c.b.Syms.Len()
		if size <= int(sym) {
			size = int(sym) + 1
		}
		grown := make([]*Config, size)
		copy(grown, row)
		row = grown
		c.trans[parent] = row
	}
	row[sym] = cfg
}

func (c *ConfigCache) build(p *Config, sym tree.SymID, label string) *Config {
	next := c.b.M.NewSet()
	c.b.StepInto(p.Next, sym, label, nil, next)
	c.rootsBuf = c.b.EnteredQualsInto(p.Next, sym, label, c.rootsBuf[:0])
	qualIDs := append([]int(nil), c.rootsBuf...)
	roots := append(c.rootsBuf, p.ChildNeeds...)
	cfg := &Config{ID: len(c.configs), Next: next, QualIDs: qualIDs}
	if next.Empty() && len(roots) == 0 {
		cfg.Pruned = true
	} else {
		cfg.EvalIDs = c.lq.Closure(roots)
		cfg.ChildNeeds = c.lq.ChildNeeds(cfg.EvalIDs)
	}
	c.configs = append(c.configs, cfg)
	c.trans = append(c.trans, nil)
	return cfg
}
