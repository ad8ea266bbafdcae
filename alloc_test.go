package xtq

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xtq/internal/obs"
	"xtq/internal/queries"
	"xtq/internal/sax"
	"xtq/internal/store"
	"xtq/internal/xmark"
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

// doc640 builds the 640-element benchmark document used by the sealed
// snapshot allocation pins: a root, nine sections, and 630 attributed
// items (1 + 9 + 630 = 640 elements; just under 1300 nodes counting
// text).
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

// TestSealedEvalAllocs pins Prepared.Eval over a sealed snapshot — the
// store's read path. Sealing must be free at evaluation time: the
// automaton walks the same pointer structure, and the count here is the
// same as for a freshly parsed copy of the document. The 630 candidate
// items each get a qualifier test, which is a first-witness search that
// allocates nothing, so the count is per evaluation, not per candidate
// (measured 32; it was ~661 when each test built a Select frontier). A
// regression that makes sealed trees more expensive to read — say a
// defensive copy on access — or puts an allocation back into the
// qualifier test shows up as a multiple of the document size.
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
	const maxAllocs = 100
	if got := testing.AllocsPerRun(100, func() {
		if _, err := p.Eval(ctx, sealed); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("Prepared.Eval over sealed doc allocates %.1f times per run, want <= %d", got, maxAllocs)
	}
}

// TestComposedViewEvalAllocs pins a composed view query: U9 through the
// security view, whose first layer keeps the whole regions subtree live,
// so every item is a virtual node with per-layer state and a qualifier
// test. State vectors come from the run's arenas and the qualifier tests
// are first-witness searches, so the count is per evaluation and per
// result (this query has none), not per visited node: it must stay under
// one bound on XMark 0.01 and 0.05 alike (measured 27 on both; ~56 000
// on 0.05 when every child took a fresh state vector).
func TestComposedViewEvalAllocs(t *testing.T) {
	v, err := NewEngine().View(securityView...)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Prepare(`for $x in ` + queries.U[9] + ` return $x`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const maxAllocs = 60
	for _, factor := range []float64{0.01, 0.05} {
		doc := benchDoc(t, factor)
		if _, _, err := pv.Eval(ctx, doc); err != nil { // index + warm up
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() {
			if _, _, err := pv.Eval(ctx, doc); err != nil {
				t.Fatal(err)
			}
		}); got > maxAllocs {
			t.Errorf("factor %g: composed view query allocates %.1f times per run, want <= %d", factor, got, maxAllocs)
		}
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

// TestImageEmitAllocs pins the same path over an imaged snapshot: a
// query result over an imaged XMark 0.01 snapshot goes out as a few
// walked spine nodes and byte ranges copied from the image the emitter
// finds, allocating no more than the plain walk.
func TestImageEmitAllocs(t *testing.T) {
	ctx := context.Background()
	doc, err := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", doc)
	if err != nil {
		t.Fatal(err)
	}
	img, _ := snap.Index().Image()
	p, err := st.Engine().Prepare(`transform copy $a := doc("d") modify do insert <seen/> into $a/site/people/person[@id = "person10"] return $a`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Eval(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !copiesFromImage(res, img) {
		t.Fatal("the result copies nothing from the image")
	}
	var cd countingDiscard
	const maxAllocs = 4
	if got := testing.AllocsPerRun(100, func() {
		w := sax.NewWriter(&cd)
		if err := sax.Emit(res, w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}); got > maxAllocs {
		t.Errorf("sax.Emit through the image allocates %.1f times per run, want <= %d", got, maxAllocs)
	}
	if want := int64(len(res.String())); cd.n != 101*want {
		t.Fatalf("wrote %d bytes over 101 runs, want %d each", cd.n, want)
	}
}

// TestTracedEvalDocNodesAllocs pins the explain path's document-size
// accounting over a sealed snapshot: the doc-node count is served from
// the index's live count in O(1), and the whole traced evaluation —
// trace bookkeeping, reading DocNodes back — may
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
// path copy rebuilds a ~20-node spine — one allocation per node, one
// child slice per spine node, two index stamps — and shares everything
// else with the previous version by reference. Measured 449 allocations
// per commit (451 with the former per-version planner statistics, 489
// with the former column core), dominated by evaluation; the bound has
// headroom for runtime drift but is far below what a whole-tree copy
// per commit costs on this document.
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
	const maxAllocs = 540
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

// TestCommitRetentionBounded pins what a long-lived writer retains: a
// version in the history ring keeps its new nodes, their child slices
// and its index — O(|delta|) — and a version that has left the ring
// keeps nothing but the nodes still part of the current document, so
// the live heap after thousands of constant-size commits is the heap
// after warm-up plus at most HistoryDepth versions' deltas per
// document, not a function of the commit count. (With the
// per-ordinal node column of the former column core every superseded
// spine node — and through it that version's index — stayed reachable:
// ~200 KB per commit on the large document here, ~55 KB on each small
// one.)
//
// The writer mirrors the wire benchmark's update_commit pairs (insert
// <bench_note/> into a person, delete it again) followed by a rename of
// one item and back, over rotating persons and items: every document is
// back in its base state after four commits, but each commit leaves
// nodes behind that later versions alias — the case in which a survivor
// must not keep the version it was born in reachable. The commit count
// is 2000 (1000 with -short), cut short — never below 200 — once a case
// has run for a second and a half, which is what keeps it affordable
// under -race.
func TestCommitRetentionBounded(t *testing.T) {
	const rotate = 20 // XMark 0.001 has 25 persons and 21 items
	update := func(i int) string {
		person := fmt.Sprintf(`$a/site/people/person[@id = "person%d"]`, i/4%rotate)
		item := fmt.Sprintf(`[@id = "item%d"]`, i/4%rotate)
		return `transform copy $a := doc("d") modify do ` + [...]string{
			"insert <bench_note/> into " + person,
			"delete " + person + "/bench_note",
			"rename $a/site/regions//item" + item + " as item_",
			"rename $a/site/regions//item_" + item + " as item",
		}[i%4] + ` return $a`
	}
	commits := 2000
	if testing.Short() {
		commits /= 2
	}
	const (
		minCommits = 200
		budget     = 1500 * time.Millisecond
		slack      = 4 << 20 // GC timing, engine caches, the 64-event watch rings
		perVersion = 1 << 10 // index stamps, not in CopiedBytes
		depth      = store.DefaultHistoryDepth
	)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, tc := range []struct {
		name   string
		docs   int
		factor float64
	}{
		{"one_xmark_0.05", 1, 0.05},
		{"64_xmark_0.001", 64, 0.001},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			st := NewStore(nil)
			names := make([]string, tc.docs)
			for i := range names {
				doc, err := xmark.Generate(xmark.Config{Factor: tc.factor, Seed: int64(42 + i)})
				if err != nil {
					t.Fatal(err)
				}
				names[i] = fmt.Sprintf("d%d", i)
				if _, _, err := st.Put(ctx, names[i], FromString(doc.String())); err != nil {
					t.Fatal(err)
				}
			}
			var maxCopied int64
			// apply commits the i-th update of the round-robin schedule:
			// document i mod docs takes step i div docs of its own cycle.
			apply := func(i int) {
				q := update(i / tc.docs)
				_, com, err := st.Apply(ctx, names[i%tc.docs], q)
				if err != nil {
					t.Fatal(err)
				}
				if com.CopiedNodes == 0 {
					t.Fatalf("%q matched nothing: the workload is not exercising the path copy", q)
				}
				maxCopied = max(maxCopied, com.CopiedBytes)
			}
			// Warm up until every document's history ring is full and every
			// rotating target has been touched once, so the baseline already
			// holds HistoryDepth versions and the surviving nodes.
			warm := tc.docs * 4 * rotate
			for i := 0; i < warm; i++ {
				apply(i)
			}
			before := liveHeap()
			start := time.Now()
			n := 0
			for n < commits && (n < minCommits || time.Since(start) < budget) {
				for end := n + 4*tc.docs; n < end; n++ { // whole cycles only
					apply(warm + n)
				}
			}
			elapsed := time.Since(start)
			after := liveHeap()
			growth := int64(after) - int64(before)
			limit := int64(tc.docs)*depth*(maxCopied+perVersion) + slack
			t.Logf("%d commits in %v: live heap %.1f -> %.1f MB (growth %d KB, limit %d KB, largest version delta %d KB)",
				n, elapsed.Round(time.Millisecond), float64(before)/(1<<20), float64(after)/(1<<20),
				growth>>10, limit>>10, maxCopied>>10)
			if growth > limit {
				t.Errorf("live heap grew %d KB over %d constant-size commits, want <= %d KB "+
					"(%d docs x HistoryDepth %d x %d KB per version + %d KB slack): superseded versions are being retained",
					growth>>10, n, limit>>10, tc.docs, depth, (maxCopied+perVersion)>>10, slack>>10)
			}
			runtime.KeepAlive(st)
		})
	}
}
