package xtq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xtq/internal/obs"
	"xtq/internal/sax"
)

// TestPreparedEvalAllocs pins the steady-state allocation count of
// Prepared.Eval on an already-parsed document. The dense representation
// (symbol-bound automaton stepping, per-depth state-set pooling, lazy
// child-slice copying) keeps the per-evaluation count small and — more
// importantly — independent of the untouched part of the document; a
// regression here means an allocation crept back into the traversal hot
// path. The bound has headroom over the measured value (~32) so unrelated
// runtime changes do not flake, while still catching per-node
// regressions, which show up as hundreds of allocations even on this
// small document.
func TestPreparedEvalAllocs(t *testing.T) {
	eng := NewEngine()
	p, err := eng.Prepare(`transform copy $a := doc("foo") modify do delete $a//supplier[country = "A"]/price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(`<db><part><pname>kb</pname>` +
		`<supplier><sname>HP</sname><price>15</price><country>US</country></supplier>` +
		`<supplier><sname>Logi</sname><price>12</price><country>A</country></supplier>` +
		`<subPart><part><pname>key</pname><supplier><sname>Acme</sname><price>20</price><country>CN</country></supplier></part></subPart>` +
		`</part></db>`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := p.Eval(ctx, doc); err != nil { // index + warm up
		t.Fatal(err)
	}
	const maxAllocs = 60
	if got := testing.AllocsPerRun(200, func() {
		if _, err := p.Eval(ctx, doc); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("Prepared.Eval allocates %.1f times per run, want <= %d", got, maxAllocs)
	}
}

// doc640 builds the 640-element benchmark document used by the SoA
// allocation pins: a root, nine sections, and 630 attributed items
// (1 + 9 + 630 = 640 elements; just under 1300 nodes counting text,
// so the column store spans several chunks).
func doc640() string {
	var b strings.Builder
	b.WriteString("<db>")
	for s := 0; s < 9; s++ {
		b.WriteString("<sec>")
		for i := 0; i < 70; i++ {
			fmt.Fprintf(&b, "<item id=\"%d\">v%d</item>", i, i)
		}
		b.WriteString("</sec>")
	}
	b.WriteString("</db>")
	return b.String()
}

// TestSealedEvalAllocs pins Prepared.Eval over a sealed
// structure-of-arrays document — the store's read path. Sealing must
// be free at evaluation time: the automaton walks the same pointer
// structure, the ordinal columns ride along untouched, and the count
// here is the same as for a freshly parsed copy of the document
// (predicate evaluation over the 630 candidate items dominates, at
// about one allocation per candidate; measured ~661). A regression
// that makes sealed trees more expensive to read — say a defensive
// copy on access — shows up as a multiple of the document size.
func TestSealedEvalAllocs(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	if _, _, err := st.Put(ctx, "d", FromString(doc640())); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot("d")
	if err != nil {
		t.Fatal(err)
	}
	sealed := snap.Root()

	p, err := st.Engine().Prepare(`transform copy $a := doc("d") modify do delete $a//item[@id = "3"] return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(ctx, sealed); err != nil { // warm up
		t.Fatal(err)
	}
	const maxAllocs = 1000
	if got := testing.AllocsPerRun(100, func() {
		if _, err := p.Eval(ctx, sealed); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("Prepared.Eval over sealed doc allocates %.1f times per run, want <= %d", got, maxAllocs)
	}
}

// TestEmitAllocs pins the serialisation path of every xtqd query
// response: sax.Emit of the 640-element document into a fresh
// sax.Writer allocates a constant (the Writer; its 64 KB buffer is
// pooled) and nothing per node or per event — measured 1.
func TestEmitAllocs(t *testing.T) {
	doc, err := ParseString(doc640())
	if err != nil {
		t.Fatal(err)
	}
	var cd countingDiscard
	const maxAllocs = 4
	if got := testing.AllocsPerRun(100, func() {
		w := sax.NewWriter(&cd)
		if err := sax.Emit(doc, w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("sax.Emit allocates %.1f times per run, want <= %d", got, maxAllocs)
	}
	if cd.n == 0 {
		t.Fatal("nothing was written")
	}
}

// TestTracedEvalDocNodesAllocs pins the explain path's document-size
// accounting over a sealed snapshot: the doc-node count is served from
// the index's live count in O(1), and the whole traced evaluation —
// trace bookkeeping, the planner section, reading DocNodes back — may
// add only a constant number of allocations over the untraced pin.
// A regression that reintroduces the O(n) subtree walk (or any other
// per-node work on the trace path) shows up as document-proportional
// extra allocations here.
func TestTracedEvalDocNodesAllocs(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	if _, _, err := st.Put(ctx, "d", FromString(doc640())); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot("d")
	if err != nil {
		t.Fatal(err)
	}
	sealed := snap.Root()
	p, err := st.Engine().Prepare(`transform copy $a := doc("d") modify do delete $a//item[@id = "3"] return $a`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	tctx := obs.WithTrace(ctx, tr)
	if _, err := p.Eval(tctx, sealed); err != nil { // warm up both paths
		t.Fatal(err)
	}
	if got, want := tr.DocNodes(), snap.NumNodes(); got != want {
		t.Fatalf("traced DocNodes = %d, want the snapshot's live count %d", got, want)
	}
	base := testing.AllocsPerRun(100, func() {
		if _, err := p.Eval(ctx, sealed); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(100, func() {
		if _, err := p.Eval(tctx, sealed); err != nil {
			t.Fatal(err)
		}
		_ = tr.DocNodes()
	})
	const maxExtra = 40
	if traced > base+maxExtra {
		t.Errorf("traced eval allocates %.1f vs %.1f untraced; want <= %.1f extra allocations",
			traced, base, float64(maxExtra))
	}
}

// TestPathCopyCommitAllocs pins a full store commit — evaluate, path
// copy, link into the version chain — on the 640-element document.
// The alternating rename touches nine items (one per section), so the
// path copy rebuilds a ~20-node spine and copies only the chunks those
// rows live in; everything else is shared with the previous version by
// reference. Measured ~470 allocations per commit, dominated by
// evaluation; the bound has headroom for runtime drift but is far
// below what a whole-tree copy per commit costs on this document.
func TestPathCopyCommitAllocs(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	if _, _, err := st.Put(ctx, "d", FromString(doc640())); err != nil {
		t.Fatal(err)
	}
	fwd := `transform copy $a := doc("d") modify do rename $a//item[@id = "3"] as even return $a`
	back := `transform copy $a := doc("d") modify do rename $a//even as item return $a`
	// Warm up one full cycle so query compilation is cached.
	if _, _, err := st.Apply(ctx, "d", fwd); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Apply(ctx, "d", back); err != nil {
		t.Fatal(err)
	}
	i := 0
	const maxAllocs = 800
	if got := testing.AllocsPerRun(100, func() {
		q := fwd
		if i%2 == 1 {
			q = back
		}
		i++
		if _, _, err := st.Apply(ctx, "d", q); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("path-copy commit allocates %.1f times per run, want <= %d", got, maxAllocs)
	}
}
