package core

import (
	"context"
	"strings"

	"xtq/internal/tree"
	"xtq/internal/xerr"
)

// Method selects a transform-query evaluation algorithm. The names follow
// the paper's experimental section (§7.1).
type Method string

const (
	// MethodNaive is the rewriting-based Naive method of §3.1 ("NAIVE").
	MethodNaive Method = "naive"
	// MethodTopDown is algorithm topDown with direct qualifier
	// evaluation (§3.3; "GENTOP").
	MethodTopDown Method = "topdown"
	// MethodTwoPass is bottomUp followed by topDown with annotated
	// qualifier checks (§5; "TD-BU").
	MethodTwoPass Method = "twopass"
	// MethodCopyUpdate is the snapshot-and-update baseline
	// ("GalaXUpdate").
	MethodCopyUpdate Method = "copyupdate"
	// MethodAuto is not an algorithm but a directive: run the method
	// the system recommends. It resolves to MethodTopDown (see
	// Resolve), the paper's best general method (§7) and the fastest
	// in-memory method in every cell of the Fig. 12/13 sweeps.
	MethodAuto Method = "auto"
)

// Resolve returns the algorithm m runs as: MethodAuto and the zero
// Method (a caller leaving the choice to the default) resolve to
// MethodTopDown, every other method to itself.
func Resolve(m Method) Method {
	if m == MethodAuto || m == "" {
		return MethodTopDown
	}
	return m
}

// Methods lists the in-memory evaluation methods in the order the paper's
// figures report them. The streaming twoPassSAX method lives in the
// saxeval package since it consumes readers, not trees.
func Methods() []Method {
	return []Method{MethodCopyUpdate, MethodNaive, MethodTwoPass, MethodTopDown}
}

// MethodNames returns the method names as strings, for flag help and
// error messages.
func MethodNames() []string {
	ms := Methods()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = string(m)
	}
	return out
}

// ParseMethod validates a method name, returning an Eval-kind *xerr.Error
// naming the valid methods when it is unknown. Use it to reject a bad
// method before any input document is read.
func ParseMethod(s string) (Method, error) {
	if s == string(MethodAuto) {
		return MethodAuto, nil
	}
	for _, m := range Methods() {
		if string(m) == s {
			return m, nil
		}
	}
	return "", unknownMethodErr(Method(s))
}

func unknownMethodErr(m Method) error {
	return xerr.New(xerr.Eval, "", "core: unknown method %q (valid: %s)",
		string(m), strings.Join(append(MethodNames(), string(MethodAuto)), ", "))
}

// EvalContext evaluates the compiled transform query on doc with the given
// method, aborting at node granularity when ctx is cancelled. The input
// tree is never modified; depending on the method the result may share
// unmodified subtrees with doc (see EvalTopDown). A Compiled is immutable,
// so EvalContext is safe to call from concurrent goroutines.
func (c *Compiled) EvalContext(ctx context.Context, doc *tree.Node, m Method) (*tree.Node, error) {
	// The evaluators poll cancellation every pollInterval nodes, which a
	// small document may never reach; checking up front makes an
	// already-cancelled context fail deterministically.
	if ctx != nil && ctx.Err() != nil {
		return nil, xerr.Wrap(xerr.Eval, ctx.Err())
	}
	switch Resolve(m) {
	case MethodNaive:
		return EvalNaive(ctx, c, doc)
	case MethodTopDown:
		return EvalTopDown(ctx, c, doc, DirectChecker{})
	case MethodTwoPass:
		return EvalTwoPass(ctx, c, doc)
	case MethodCopyUpdate:
		return EvalCopyUpdate(ctx, c, doc)
	default:
		return nil, unknownMethodErr(m)
	}
}

// Eval is EvalContext without cancellation.
func (c *Compiled) Eval(doc *tree.Node, m Method) (*tree.Node, error) {
	return c.EvalContext(context.Background(), doc, m)
}

// Eval compiles and evaluates q on doc; a convenience for one-shot use.
func (q *Query) Eval(doc *tree.Node, m Method) (*tree.Node, error) {
	c, err := q.Compile()
	if err != nil {
		return nil, err
	}
	return c.Eval(doc, m)
}
