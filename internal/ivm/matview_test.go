package ivm

import (
	"context"
	"math/rand"
	"testing"

	"xtq/internal/compose"
	"xtq/internal/core"
	"xtq/internal/store"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

// mapCache is a trivial VerdictCache for tests.
type mapCache struct{ m map[string]Verdict }

func newMapCache() *mapCache                     { return &mapCache{m: make(map[string]Verdict)} }
func (c *mapCache) Get(k string) (Verdict, bool) { v, ok := c.m[k]; return v, ok }
func (c *mapCache) Add(k string, v Verdict)      { c.m[k] = v }

// hookStore wires a manager into a fresh in-memory store the way the
// facade does, recording the per-commit affected sets.
func hookStore(mgr *Manager) (*store.Store, *[][]string) {
	st := store.New()
	var affected [][]string
	st.SetCommitHook(func(ev store.CommitEvent) {
		affected = append(affected, mgr.OnCommit(ev))
	})
	return st, &affected
}

func mustPut(t *testing.T, st *store.Store, name string, doc *tree.Node) *store.Snapshot {
	t.Helper()
	snap, _, err := st.Put(name, doc, false)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustApply(t *testing.T, st *store.Store, name, src string) *store.Snapshot {
	t.Helper()
	c, err := core.MustParseQuery(src).Compile()
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.Apply(context.Background(), name, c, core.MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func oracle(t *testing.T, layers []*core.Compiled, root *tree.Node) *tree.Node {
	t.Helper()
	cur := root
	for _, l := range layers {
		var err error
		if cur, err = l.EvalContext(context.Background(), cur, core.MethodCopyUpdate); err != nil {
			t.Fatal(err)
		}
	}
	return cur
}

func siteDoc() *tree.Node {
	return tree.NewDocument(tree.NewElement("site",
		tree.NewElement("regions",
			tree.NewElement("item", tree.NewElement("name", tree.NewText("lot")))),
		tree.NewElement("people",
			tree.NewElement("person", tree.NewElement("age", tree.NewText("30"))))))
}

func TestManagerLazyMaterializeAndCacheHit(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{compileUpdate(t, q(`delete $a/site/people`))}
	mgr.SetView("nopeople", layers, false)
	st, _ := hookStore(mgr)
	snap := mustPut(t, st, "T", siteDoc())

	out, s, err := mgr.Get(context.Background(), snap, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "recompute" || s.CacheHit {
		t.Fatalf("first read: %+v", s)
	}
	if !tree.Equal(out, oracle(t, layers, snap.Root())) {
		t.Fatal("materialization mismatch")
	}
	out2, s2, err := mgr.Get(context.Background(), snap, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Source != "cache" || !s2.CacheHit {
		t.Fatalf("second read not a cache hit: %+v", s2)
	}
	if out2 != out {
		t.Fatal("cache hit returned a different tree")
	}
	if _, _, err := mgr.Get(context.Background(), snap, "nosuch"); err == nil {
		t.Fatal("unregistered view served")
	}
}

func TestManagerUnaffectedCommitIsZeroWork(t *testing.T) {
	cache := newMapCache()
	mgr := NewManager(core.MethodTopDown, cache)
	layers := []*core.Compiled{compileUpdate(t, q(`delete $a/site/people`))}
	mgr.SetView("nopeople", layers, false)
	st, affected := hookStore(mgr)
	snap := mustPut(t, st, "T", siteDoc())
	if _, _, err := mgr.Get(context.Background(), snap, "nopeople"); err != nil {
		t.Fatal(err)
	}

	// An update entirely inside the deleted region: provably unaffected.
	snap2 := mustApply(t, st, "T", q(`insert <mark/> into $a/site/people/person`))
	if got := (*affected)[len(*affected)-1]; len(got) != 0 {
		t.Fatalf("unaffected commit reported affected views %v", got)
	}
	out, s, err := mgr.Get(context.Background(), snap2, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "cache" || s.UnaffectedCommits != 1 || s.FullCommits != 1 {
		t.Fatalf("after unaffected commit: %+v", s)
	}
	if !tree.Equal(out, oracle(t, layers, snap2.Root())) {
		t.Fatal("unaffected bump serves wrong bytes")
	}
	if len(cache.m) == 0 {
		t.Fatal("verdict cache unused")
	}

	// The same update again must hit the verdict cache (same canonical
	// rendering) and bump again.
	snap3 := mustApply(t, st, "T", q(`insert <mark/> into $a/site/people/person`))
	_, s, err = mgr.Get(context.Background(), snap3, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s.UnaffectedCommits != 2 || s.FullCommits != 1 {
		t.Fatalf("after second unaffected commit: %+v", s)
	}
}

func TestManagerDeltaMaintenance(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{compileUpdate(t, q(`delete $a/site/people`))}
	mgr.SetView("nopeople", layers, true) // eager
	st, affected := hookStore(mgr)
	mustPut(t, st, "T", siteDoc())

	// An affecting update outside the deleted region.
	snap := mustApply(t, st, "T", q(`insert <mark/> into $a/site/regions/item`))
	if got := (*affected)[len(*affected)-1]; len(got) != 1 || got[0] != "nopeople" {
		t.Fatalf("affected set %v", got)
	}
	out, s, err := mgr.Get(context.Background(), snap, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "cache" {
		t.Fatalf("eager view not maintained: %+v", s)
	}
	if s.DeltaCommits != 1 {
		t.Fatalf("affecting commit did not take the delta path: %+v", s)
	}
	if !tree.Equal(out, oracle(t, layers, snap.Root())) {
		t.Fatal("delta-maintained view mismatch")
	}

	// After an unaffected commit the memo is stale: the next affecting
	// commit must fall back to a full recomposition and still be right.
	mustApply(t, st, "T", q(`delete $a/site/people/person/age`))
	snap3 := mustApply(t, st, "T", q(`insert <mark/> into $a/site/regions`))
	out, s, err = mgr.Get(context.Background(), snap3, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "cache" || s.DeltaCommits != 1 || s.FullCommits < 2 {
		t.Fatalf("stale-memo fallback: %+v", s)
	}
	if !tree.Equal(out, oracle(t, layers, snap3.Root())) {
		t.Fatal("full-fallback view mismatch")
	}
}

// TestManagerQualifiedViewMaintained: a qualified first layer makes the
// verdict unknown, and the commit is maintained by delta like any other.
func TestManagerQualifiedViewMaintained(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{compileUpdate(t, q(`delete $a/site/people/person[age = "30"]`))}
	mgr.SetView("adults", layers, true)
	st, affected := hookStore(mgr)
	mustPut(t, st, "T", siteDoc())
	snap := mustApply(t, st, "T", q(`insert <person><age>31</age></person> into $a/site/people`))
	if got := (*affected)[len(*affected)-1]; len(got) != 1 {
		t.Fatalf("qualified view should be affected/unknown: %v", got)
	}
	out, s, err := mgr.Get(context.Background(), snap, "adults")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "cache" || s.UnknownCommits != 1 || s.DeltaCommits != 1 {
		t.Fatalf("qualified maintenance: %+v", s)
	}
	if !tree.Equal(out, oracle(t, layers, snap.Root())) {
		t.Fatal("qualified view mismatch")
	}
}

func TestManagerTimeTravelReadDoesNotDisturbCache(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{compileUpdate(t, q(`delete $a/site/people`))}
	mgr.SetView("nopeople", layers, true)
	st, _ := hookStore(mgr)
	snap1 := mustPut(t, st, "T", siteDoc())
	snap2 := mustApply(t, st, "T", q(`insert <mark/> into $a/site/regions`))

	out2, s, err := mgr.Get(context.Background(), snap2, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "cache" {
		t.Fatalf("head read: %+v", s)
	}
	out1, s1, err := mgr.Get(context.Background(), snap1, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Source != "delta" || s1.CacheHit {
		t.Fatalf("time-travel read: %+v", s1)
	}
	if !tree.Equal(out1, oracle(t, layers, snap1.Root())) {
		t.Fatal("time-travel view mismatch")
	}
	// The cache still serves the head.
	out2b, s2b, err := mgr.Get(context.Background(), snap2, "nopeople")
	if err != nil {
		t.Fatal(err)
	}
	if s2b.Source != "cache" || out2b != out2 {
		t.Fatal("time travel disturbed the cached head")
	}
}

func TestManagerRemoveAndViewRegistry(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{compileUpdate(t, q(`delete $a/site/people`))}
	mgr.SetView("v1", layers, false)
	mgr.SetView("v2", layers, false)
	st, affected := hookStore(mgr)
	snap := mustPut(t, st, "T", siteDoc())
	if _, _, err := mgr.Get(context.Background(), snap, "v1"); err != nil {
		t.Fatal(err)
	}
	if names := mgr.ViewNames(); len(names) != 2 || names[0] != "v1" || names[1] != "v2" {
		t.Fatalf("ViewNames: %v", names)
	}
	if ok, err := st.Remove("T"); err != nil || !ok {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if got := (*affected)[len(*affected)-1]; len(got) != 2 {
		t.Fatalf("removal affected set %v", got)
	}
	if !mgr.RemoveView("v1") || mgr.RemoveView("v1") {
		t.Fatal("RemoveView")
	}
	if names := mgr.ViewNames(); len(names) != 1 || names[0] != "v2" {
		t.Fatal("registry state")
	}
}

// SetView must drop stale materializations: a redefinition with the
// same name serves the new definition immediately.
func TestManagerSetViewInvalidates(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	mgr.SetView("v", []*core.Compiled{compileUpdate(t, q(`delete $a/site/people`))}, false)
	st, _ := hookStore(mgr)
	snap := mustPut(t, st, "T", siteDoc())
	if _, _, err := mgr.Get(context.Background(), snap, "v"); err != nil {
		t.Fatal(err)
	}
	redef := []*core.Compiled{compileUpdate(t, q(`delete $a/site/regions`))}
	mgr.SetView("v", redef, false)
	out, s, err := mgr.Get(context.Background(), snap, "v")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "recompute" {
		t.Fatalf("redefinition served stale cache: %+v", s)
	}
	if !tree.Equal(out, oracle(t, redef, snap.Root())) {
		t.Fatal("redefined view mismatch")
	}
}

// Property: an eagerly maintained materialization is byte-identical to
// full recomposition at every version of a random XMark update
// sequence, across delta, full-fallback and unaffected paths, with
// qualifiers on any view layer.
func TestQuickManagerMatchesOracle(t *testing.T) {
	cfg := xmarkCfg()
	viewCfg := cfg
	viewCfg.Attrs = []string{"id", "category"}
	viewCfg.MaxQual = 2
	totals := struct{ delta, full, unaffected, segmented int }{}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(11000 + seed))
		doc, err := xmark.Generate(xmark.Config{
			Factor: 0.0005 + rng.Float64()*0.002,
			Seed:   rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		mgr := NewManager(core.MethodTopDown, newMapCache())
		depth := 1 + rng.Intn(3)
		layers := make([]*core.Compiled, 0, depth)
		for len(layers) < depth {
			c, err := (&core.Query{Var: "a", Doc: "gen", Update: randomUpdate(rng, viewCfg)}).Compile()
			if err == nil {
				layers = append(layers, c)
			}
		}
		for _, l := range layers[1:] {
			if l.NFA.HasQualifiers() {
				totals.segmented++
				break
			}
		}
		mgr.SetView("v", layers, true)
		st, _ := hookStore(mgr)
		snap := mustPut(t, st, "T", doc)
		for step := 0; step < 8; step++ {
			var upd *core.Compiled
			for upd == nil {
				c, err := (&core.Query{Var: "a", Doc: "gen", Update: randomUpdate(rng, cfg)}).Compile()
				if err == nil {
					upd = c
				}
			}
			var aerr error
			snap, _, aerr = st.Apply(context.Background(), "T", upd, core.MethodTopDown)
			if aerr != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, aerr)
			}
			out, s, err := mgr.Get(context.Background(), snap, "v")
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !tree.Equal(out, oracle(t, layers, snap.Root())) {
				t.Fatalf("seed %d step %d: maintained view diverged from oracle\n update: %s",
					seed, step, upd.Query.Update.String("$a"))
			}
			totals.delta += s.DeltaCommits
			totals.full += s.FullCommits
			totals.unaffected += s.UnaffectedCommits
		}
	}
	if totals.delta == 0 {
		t.Error("property run never took the delta path")
	}
	if totals.unaffected == 0 {
		t.Error("property run never proved a commit unaffected")
	}
	if totals.segmented == 0 {
		t.Error("no view had a qualified layer above the first")
	}
}

// held wires a manager into a fresh store whose commit hook only
// records events: the test delivers them to OnCommit itself, so it can
// read a snapshot before, or after, the hook has seen its commit.
func held() (*store.Store, *[]store.CommitEvent) {
	st := store.New()
	var evs []store.CommitEvent
	st.SetCommitHook(func(ev store.CommitEvent) { evs = append(evs, ev) })
	return st, &evs
}

// offVersionRead checks one off-version read: it equals a full
// Stack.Eval of snap, runs by delta, and recomposes nothing.
func offVersionRead(t *testing.T, mgr *Manager, layers []*core.Compiled, snap *store.Snapshot) (*tree.Node, Stats) {
	t.Helper()
	recomputes := mReads.With("recompute").Value()
	out, s, err := mgr.Get(context.Background(), snap, "v")
	if err != nil {
		t.Fatal(err)
	}
	stack, err := compose.NewStack(layers)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := stack.Eval(context.Background(), snap.Root())
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(out, want) {
		t.Fatalf("read at version %d differs from a full evaluation", snap.Version())
	}
	if s.Source != "delta" || s.CacheHit {
		t.Fatalf("read at version %d: %+v, want source delta", snap.Version(), s)
	}
	if got := mReads.With("recompute").Value() - recomputes; got != 0 {
		t.Fatalf("read at version %d recomposed %d times", snap.Version(), got)
	}
	return out, s
}

func offVersionSetup(t *testing.T) (*Manager, []*core.Compiled, *store.Store, *[]store.CommitEvent, *store.Snapshot) {
	t.Helper()
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{
		compileUpdate(t, q(`delete $a/site/regions/item/name`)),
		compileUpdate(t, q(`rename $a/site/people/person as member`)),
	}
	mgr.SetView("v", layers, false)
	st, evs := held()
	snap := mustPut(t, st, "T", siteDoc())
	mgr.OnCommit((*evs)[0])
	if _, s, err := mgr.Get(context.Background(), snap, "v"); err != nil || s.Source != "recompute" {
		t.Fatalf("first read: %+v, %v", s, err)
	}
	return mgr, layers, st, evs, snap
}

// TestOffVersionReadBelowRunsByDelta: a read of version v after the
// hook maintained v+1 splices the memo and leaves the cache at v+1.
func TestOffVersionReadBelowRunsByDelta(t *testing.T) {
	mgr, layers, st, evs, snap1 := offVersionSetup(t)
	snap2 := mustApply(t, st, "T", q(`insert <age>31</age> into $a/site/people/person`))
	mgr.OnCommit((*evs)[1])
	head, s, err := mgr.Get(context.Background(), snap2, "v")
	if err != nil || s.Source != "cache" || s.DeltaCommits != 1 {
		t.Fatalf("head read: %+v, %v", s, err)
	}
	if _, s := offVersionRead(t, mgr, layers, snap1); s.ReusedSubtrees == 0 {
		t.Fatalf("below read spliced nothing: %+v", s)
	}
	again, s, err := mgr.Get(context.Background(), snap2, "v")
	if err != nil || s.Source != "cache" || again != head {
		t.Fatalf("the below read disturbed the cached head: %+v, %v", s, err)
	}
}

// TestOffVersionReadAheadRunsByDelta: a read of version v+1 published
// before the hook ran installs it by delta, and the late hook then
// does no maintenance.
func TestOffVersionReadAheadRunsByDelta(t *testing.T) {
	mgr, layers, st, evs, _ := offVersionSetup(t)
	snap2 := mustApply(t, st, "T", q(`insert <age>31</age> into $a/site/people/person`))
	out, s := offVersionRead(t, mgr, layers, snap2)
	if s.DeltaCommits != 1 || s.FullCommits != 1 {
		t.Fatalf("ahead read did not install by delta: %+v", s)
	}
	mgr.OnCommit((*evs)[1])
	cached, s2, err := mgr.Get(context.Background(), snap2, "v")
	if err != nil || s2.Source != "cache" || cached != out {
		t.Fatalf("read after the late hook: %+v, %v", s2, err)
	}
	if s2.DeltaCommits != s.DeltaCommits || s2.FullCommits != s.FullCommits {
		t.Fatalf("the late hook maintained again: %+v after %+v", s2, s)
	}
}

// TestOffVersionReadSharingNothing: a snapshot that shares no node with
// the memo's version (a Put) is walked in full by the same delta run,
// and installed as a chain of its own.
func TestOffVersionReadSharingNothing(t *testing.T) {
	mgr, layers, st, _, snap1 := offVersionSetup(t)
	before := mgr.entry("T", "v", false).chain
	snap2 := mustPut(t, st, "T", siteDoc())
	if _, s := offVersionRead(t, mgr, layers, snap2); s.ReusedSubtrees != 0 {
		t.Fatalf("a fresh document shared subtrees with the memo: %+v", s)
	}
	if after := mgr.entry("T", "v", false).chain; after == nil || after == before {
		t.Fatal("a from-scratch result was not stamped into a chain of its own")
	}
	offVersionRead(t, mgr, layers, snap1)
}

// TestViewChainNeverWidens: 2000 delta-maintained commits leave the view
// chain stamped by the full materialization exactly as it was — delta
// versions splice its nodes and are never stamped themselves — and the
// chain's image keeps serving them.
func TestViewChainNeverWidens(t *testing.T) {
	mgr := NewManager(core.MethodTopDown, nil)
	layers := []*core.Compiled{compileUpdate(t, q(`rename $a/site/people/person as member`))}
	mgr.SetView("v", layers, true)
	st, _ := hookStore(mgr)
	doc := siteDoc()
	people := doc.Children[0].Children[1]
	for i := 0; i < 30; i++ {
		people.Append(tree.NewElement("person", tree.NewElement("age", tree.NewText("40"))))
	}
	snap := mustPut(t, st, "T", doc)
	e := mgr.entry("T", "v", false)
	chain := e.chain
	if chain == nil {
		t.Fatal("the full materialization was not stamped")
	}
	width := chain.NumNodes
	for i := 0; i < 3; i++ { // the third read served from the entry builds its image
		if _, _, err := mgr.Get(context.Background(), snap, "v"); err != nil {
			t.Fatal(err)
		}
	}
	img := chain.LoadImage()
	if img == nil {
		t.Fatal("no view image after three reads")
	}
	for i := 0; i < 2000; i++ {
		upd := `insert <note/> into $a/site/people/person[age = "30"]`
		if i%2 == 1 {
			upd = `delete $a/site/people/person/note`
		}
		snap = mustApply(t, st, "T", q(upd))
	}
	out, s, err := mgr.Get(context.Background(), snap, "v")
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "cache" || s.DeltaCommits != 2000 || s.FullCommits != 1 {
		t.Fatalf("after 2000 commits: %+v", s)
	}
	if e.chain != chain || chain.NumNodes != width || chain.LoadImage() != img {
		t.Fatalf("view chain changed: width %d → %d", width, chain.NumNodes)
	}
	if !tree.Equal(out, oracle(t, layers, snap.Root())) {
		t.Fatal("maintained view mismatch")
	}
	if got, want := out.String(), out.DeepCopy().String(); got != want {
		t.Fatal("emission through the view image differs from the walk")
	}
	covered := 0
	tree.Walk(out, func(n *tree.Node, _ int) bool {
		if img.Subtree(n) != nil {
			covered++
			return false
		}
		return true
	})
	if covered != 30 {
		t.Fatalf("the view image covers %d subtrees of the last version, want the 30 untouched members", covered)
	}
}
