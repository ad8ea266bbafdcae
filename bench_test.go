package xtq

// Benchmarks regenerating the paper's figures, one benchmark tree per
// figure (§7: Fig. 12-15, plus the §7.1 NAIVE claim and the stacked-view
// workloads). The factors are scaled down from the paper's so that
//
//	go test -run '^$' -bench 'Fig1[2-5]|NaiveQuadratic|ViewStacks' -benchmem
//
// completes in minutes; `-benchtime 1x` runs every sweep once.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"xtq/internal/compose"
	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/sax"
	"xtq/internal/saxeval"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

// benchState lazily generates and caches benchmark documents.
var benchState = struct {
	docs map[float64]*tree.Node
	xml  map[float64][]byte
}{docs: map[float64]*tree.Node{}, xml: map[float64][]byte{}}

func benchDoc(b *testing.B, factor float64) *tree.Node {
	b.Helper()
	if d, ok := benchState.docs[factor]; ok {
		return d
	}
	d, err := xmark.Generate(xmark.Config{Factor: factor, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	benchState.docs[factor] = d
	return d
}

func benchXML(b *testing.B, factor float64) []byte {
	b.Helper()
	if x, ok := benchState.xml[factor]; ok {
		return x
	}
	doc := benchDoc(b, factor)
	x := []byte(doc.String())
	benchState.xml[factor] = x
	return x
}

var benchMethods = []struct {
	name   string
	method core.Method
}{
	{"GalaXUpdate", core.MethodCopyUpdate},
	{"NAIVE", core.MethodNaive},
	{"TD-BU", core.MethodTwoPass},
	{"GENTOP", core.MethodTopDown},
}

// BenchmarkFig12 reproduces Figure 12: all five evaluation methods over
// the ten insert transform queries at one document size.
func BenchmarkFig12(b *testing.B) {
	const factor = 0.02
	for i := 1; i <= 10; i++ {
		c, err := queries.Compile(i)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range benchMethods {
			b.Run(fmt.Sprintf("U%d/%s", i, m.name), func(b *testing.B) {
				doc := benchDoc(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := c.Eval(doc, m.method); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("U%d/twoPassSAX", i), func(b *testing.B) {
			xml := benchXML(b, factor)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := saxeval.Transform(c, saxeval.BytesSource(xml), discard{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13 reproduces Figure 13: scalability with document size for
// the representative queries U2, U4, U7, U10.
func BenchmarkFig13(b *testing.B) {
	for _, qi := range []int{2, 4, 7, 10} {
		c, err := queries.Compile(qi)
		if err != nil {
			b.Fatal(err)
		}
		for _, factor := range []float64{0.01, 0.02, 0.04} {
			for _, m := range benchMethods {
				b.Run(fmt.Sprintf("U%d/factor=%g/%s", qi, factor, m.name), func(b *testing.B) {
					doc := benchDoc(b, factor)
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						if _, err := c.Eval(doc, m.method); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run(fmt.Sprintf("U%d/factor=%g/twoPassSAX", qi, factor), func(b *testing.B) {
				xml := benchXML(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := saxeval.Transform(c, saxeval.BytesSource(xml), discard{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig14 reproduces Figure 14: the streaming evaluator over files,
// with -benchmem substantiating the flat memory claim (allocation per op
// stays constant as the factor grows).
func BenchmarkFig14(b *testing.B) {
	for _, factor := range []float64{0.02, 0.05, 0.1} {
		path := filepath.Join(b.TempDir(), fmt.Sprintf("xmark-%g.xml", factor))
		if _, err := xmark.WriteFile(xmark.Config{Factor: factor, Seed: 42}, path); err != nil {
			b.Fatal(err)
		}
		for _, qi := range []int{2, 4, 7, 10} {
			c, err := queries.Compile(qi)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("factor=%g/U%d", factor, qi), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, err := saxeval.Transform(c, saxeval.FileSource(path), discard{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Cleanup(func() { os.Remove(path) })
	}
}

// BenchmarkFig15 reproduces Figure 15: Naive Composition versus the
// Compose Method over the four transform/user query pairs.
func BenchmarkFig15(b *testing.B) {
	for _, p := range queries.Pairs() {
		ct, err := p.Transform.Compile()
		if err != nil {
			b.Fatal(err)
		}
		plan, err := compose.NewPlan([]*core.Compiled{ct}, p.User)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for _, factor := range []float64{0.02, 0.04} {
			b.Run(fmt.Sprintf("%s/factor=%g/NaiveComposition", p.Name, factor), func(b *testing.B) {
				doc := benchDoc(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := plan.EvalSequential(ctx, doc, core.MethodTopDown); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/factor=%g/Compose", p.Name, factor), func(b *testing.B) {
				doc := benchDoc(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, _, err := plan.Eval(ctx, doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkViewStacks measures the stacked-view workloads: single-pass
// stacked evaluation (Plan.Eval, what PreparedView.Eval runs) versus
// sequentially materializing every layer.
func BenchmarkViewStacks(b *testing.B) {
	for _, s := range queries.Stacks() {
		layers := make([]*core.Compiled, len(s.Layers))
		for i, q := range s.Layers {
			c, err := q.Compile()
			if err != nil {
				b.Fatal(err)
			}
			layers[i] = c
		}
		plan, err := compose.NewPlan(layers, s.User)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for _, factor := range []float64{0.02, 0.04} {
			b.Run(fmt.Sprintf("%s/factor=%g/Sequential", s.Name, factor), func(b *testing.B) {
				doc := benchDoc(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := plan.EvalSequential(ctx, doc, core.MethodTopDown); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/factor=%g/Stacked", s.Name, factor), func(b *testing.B) {
				doc := benchDoc(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, _, err := plan.Eval(ctx, doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNaiveQuadratic isolates the §7.1 claim that NAIVE degrades when
// |$xp| grows with the document (U1) but stays linear when |$xp| is fixed
// (U2).
func BenchmarkNaiveQuadratic(b *testing.B) {
	for _, factor := range []float64{0.01, 0.02, 0.04} {
		for _, qi := range []int{1, 2} {
			c, err := queries.Compile(qi)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("U%d/factor=%g", qi, factor), func(b *testing.B) {
				doc := benchDoc(b, factor)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := c.Eval(doc, core.MethodNaive); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationNoPrune quantifies the subtree-pruning design choice:
// topDown with and without the empty-state-set shortcut.
func BenchmarkAblationNoPrune(b *testing.B) {
	c, err := queries.Compile(2) // highly selective: pruning matters most
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pruned", func(b *testing.B) {
		doc := benchDoc(b, 0.02)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := core.EvalTopDown(context.Background(), c, doc, core.DirectChecker{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noprune", func(b *testing.B) {
		doc := benchDoc(b, 0.02)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, err := core.EvalTopDownNoPrune(context.Background(), c, doc, core.DirectChecker{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQualifierStrategies compares GENTOP's direct qualifier
// evaluation against TD-BU's annotated lookups on the complex-qualifier
// queries.
func BenchmarkQualifierStrategies(b *testing.B) {
	for _, qi := range []int{7, 8} {
		c, err := queries.Compile(qi)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []core.Method{core.MethodTopDown, core.MethodTwoPass} {
			b.Run(fmt.Sprintf("U%d/%s", qi, m), func(b *testing.B) {
				doc := benchDoc(b, 0.02)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if _, err := c.Eval(doc, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// discard swallows the streamed output events.
type discard struct{}

func (discard) StartDocument() error                   { return nil }
func (discard) StartElement(string, []tree.Attr) error { return nil }
func (discard) Text(string) error                      { return nil }
func (discard) EndElement(string) error                { return nil }
func (discard) EndDocument() error                     { return nil }

// BenchmarkPreparedReuse measures the steady state of the Engine API: one
// Prepare, then evaluation per document. Compare against
// BenchmarkParsePerCall to see what the compiled-query reuse amortizes
// away (query parsing plus selecting-NFA construction per call).
func BenchmarkPreparedReuse(b *testing.B) {
	const query = `transform copy $a := doc("site") modify
		do delete $a/site/regions//item[location = "United States"] return $a`
	eng := NewEngine(WithMethod(MethodTopDown))
	p, err := eng.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchDoc(b, 0.01)
	ctx := context.Background()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := p.Eval(ctx, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedCacheHit includes the engine's Prepare in the loop:
// the LRU lookup replaces parse+compile, the configuration of a service
// receiving query text with every request.
func BenchmarkPreparedCacheHit(b *testing.B) {
	const query = `transform copy $a := doc("site") modify
		do delete $a/site/regions//item[location = "United States"] return $a`
	eng := NewEngine(WithMethod(MethodTopDown))
	doc := benchDoc(b, 0.01)
	ctx := context.Background()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p, err := eng.Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Eval(ctx, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParsePerCall is the pre-Engine behaviour: parse and compile
// the query text on every evaluation.
func BenchmarkParsePerCall(b *testing.B) {
	const query = `transform copy $a := doc("site") modify
		do delete $a/site/regions//item[location = "United States"] return $a`
	doc := benchDoc(b, 0.01)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q, err := ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		c, err := q.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Eval(doc, MethodTopDown); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileOnly isolates what Prepare amortizes: query parsing
// plus automaton construction, no evaluation.
func BenchmarkCompileOnly(b *testing.B) {
	const query = `transform copy $a := doc("site") modify
		do delete $a/site/regions//item[location = "United States"] return $a`
	for n := 0; n < b.N; n++ {
		q, err := ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := q.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// Small-document variants: with microsecond evaluations the per-call
// parse+compile dominates, which is exactly the regime of a service
// answering many small requests — the case the Engine cache exists for.
func BenchmarkPreparedReuseSmallDoc(b *testing.B) {
	const query = `transform copy $a := doc("d") modify do delete $a//price return $a`
	docXML := `<db><part><pname>kb</pname><price>9</price></part><part><pname>m</pname><price>5</price></part></db>`
	doc, err := ParseString(docXML)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine()
	p, err := eng.Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := p.Eval(ctx, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParsePerCallSmallDoc(b *testing.B) {
	const query = `transform copy $a := doc("d") modify do delete $a//price return $a`
	docXML := `<db><part><pname>kb</pname><price>9</price></part><part><pname>m</pname><price>5</price></part></db>`
	doc, err := ParseString(docXML)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q, err := ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		c, err := q.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Eval(doc, MethodTopDown); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealedSnapshotEval measures Prepared evaluation over a
// sealed store snapshot — the read path every xtqd query takes.
// Compare with BenchmarkPreparedReuse: sealing must not tax evaluation.
func BenchmarkSealedSnapshotEval(b *testing.B) {
	doc := benchDoc(b, 0.01)
	ctx := context.Background()
	st := NewStore(nil)
	if _, _, err := st.Put(ctx, "d", doc); err != nil {
		b.Fatal(err)
	}
	p, err := st.Engine().Prepare(`transform copy $a := doc("d") modify
		do delete $a/site/regions//item[location = "United States"] return $a`)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := st.Snapshot("d")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Eval(ctx, snap.Root()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathCopyCommit measures the full write path — evaluate the
// update, path-copy the touched spine, publish the version — under the
// alternating //item rename workload of the store sweeps. The
// copied-B/op metric is the per-commit copy volume: spine nodes and
// their child slices, everything else shared with the previous version
// (a whole-tree copy costs what the initial Put reports as CopiedBytes).
func BenchmarkPathCopyCommit(b *testing.B) {
	doc := benchDoc(b, 0.01)
	ctx := context.Background()
	st := NewStore(nil)
	if _, _, err := st.Put(ctx, "d", doc); err != nil {
		b.Fatal(err)
	}
	fwd := `transform copy $a := doc("d") modify do rename $a/site/regions//item as item_ return $a`
	back := `transform copy $a := doc("d") modify do rename $a/site/regions//item_ as item return $a`
	if _, _, err := st.Apply(ctx, "d", fwd); err != nil { // warm caches
		b.Fatal(err)
	}
	if _, _, err := st.Apply(ctx, "d", back); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var copied int64
	for i := 0; i < b.N; i++ {
		q := fwd
		if i%2 == 1 {
			q = back
		}
		_, com, err := st.Apply(ctx, "d", q)
		if err != nil {
			b.Fatal(err)
		}
		copied += com.CopiedBytes
	}
	if b.N > 0 {
		b.ReportMetric(float64(copied)/float64(b.N), "copied-B/op")
	}
}

// countingDiscard is an io.Writer that only counts, so the serialisation
// benchmarks measure the emitter and not a growing buffer.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// BenchmarkSerialize measures the three serialisation entry points over
// the same XMark 0.05 document (≈2.1 MB, 92 k nodes): the event walk
// every xtqd query response takes (sax.Emit into a sax.Writer), the
// pointer walk (Node.WriteXML) and the same walk over a sealed,
// arena-backed snapshot (Snapshot.WriteXML). MB/s is the figure to
// compare.
func BenchmarkSerialize(b *testing.B) {
	doc := benchDoc(b, 0.05)
	st := NewStore(nil)
	if _, _, err := st.Put(context.Background(), "d", doc); err != nil {
		b.Fatal(err)
	}
	snap, err := st.Snapshot("d")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"sax_emit", func(w io.Writer) error {
			sw := sax.NewWriter(w)
			if err := sax.Emit(doc, sw); err != nil {
				return err
			}
			return sw.Flush()
		}},
		{"node_writexml", doc.WriteXML},
		{"snapshot_writexml", snap.WriteXML},
	} {
		b.Run(c.name, func(b *testing.B) {
			var cd countingDiscard
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cd.n = 0
				if err := c.write(&cd); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(cd.n)
			}
		})
	}
}
