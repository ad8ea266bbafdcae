package xtq

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"xtq/internal/tree"
)

const viewDB = `<db>
  <part><pname>keyboard</pname>
    <supplier><sname>HP</sname><price>15</price><country>US</country></supplier>
    <supplier><sname>Spy</sname><price>1</price><country>C1</country></supplier>
  </part>
  <part><pname>mouse</pname>
    <supplier><sname>Dell</sname><price>9</price><country>C2</country></supplier>
  </part>
</db>`

const (
	viewRedact = `transform copy $a := doc("d") modify
		do delete $a/db/part/supplier[country = "C1" or country = "C2"]/price return $a`
	viewHideCountry = `transform copy $a := doc("d") modify
		do delete $a/db/part/supplier/country return $a`
	viewUser = `for $x in /db/part/supplier return <entry>{$x/sname}{$x/price}{$x/country}</entry>`
)

func TestViewStackedEval(t *testing.T) {
	eng := NewEngine()
	v, err := eng.View(viewRedact, viewHideCountry)
	if err != nil {
		t.Fatal(err)
	}
	if v.Layers() != 2 {
		t.Fatalf("Layers = %d, want 2", v.Layers())
	}
	pv, err := v.Prepare(viewUser)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := pv.Eval(context.Background(), FromString(viewDB))
	if err != nil {
		t.Fatal(err)
	}
	out := got.String()
	if strings.Contains(out, "<country>") {
		t.Errorf("layer 2 leaked countries: %s", out)
	}
	if strings.Contains(out, "<price>1</price>") || strings.Contains(out, "<price>9</price>") {
		t.Errorf("layer 1 leaked redacted prices: %s", out)
	}
	if !strings.Contains(out, "<price>15</price>") {
		t.Errorf("unredacted price missing: %s", out)
	}
	if len(stats.Layers) != 2 {
		t.Fatalf("stats.Layers = %d, want 2", len(stats.Layers))
	}
	if stats.NodesVisited == 0 {
		t.Errorf("no navigation recorded: %+v", stats)
	}

	// The single pass agrees with materializing the stack sequentially.
	want, err := pv.EvalSequential(context.Background(), FromString(viewDB))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("Eval disagrees with EvalSequential:\n got  %s\n want %s", got, want)
	}

	// Materialize exposes the stacked view itself.
	mat, err := v.Materialize(context.Background(), FromString(viewDB))
	if err != nil {
		t.Fatal(err)
	}
	ms := mat.String()
	if strings.Contains(ms, "<country>") || strings.Contains(ms, "<price>1</price>") {
		t.Errorf("materialized view leaks hidden data: %s", ms)
	}
}

// TestEvalSequentialOnAutoEngine pins that the sequential baseline hands
// its layers a method they can run: an Auto engine's EvalSequential
// agrees with Eval instead of failing on the unresolved directive.
func TestEvalSequentialOnAutoEngine(t *testing.T) {
	v, err := NewEngine(WithMethod(MethodAuto)).View(viewRedact, viewHideCountry)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Prepare(viewUser)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pv.Eval(context.Background(), FromString(viewDB))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pv.EvalSequential(context.Background(), FromString(viewDB))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("Eval disagrees with EvalSequential:\n got  %s\n want %s", got, want)
	}
}

// TestPreparedViewConcurrent evaluates one PreparedView from 8 goroutines
// under -race: the plan must carry no per-run state.
func TestPreparedViewConcurrent(t *testing.T) {
	eng := NewEngine()
	v, err := eng.View(viewRedact, viewHideCountry)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Prepare(viewUser)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseString(viewDB)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pv.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				got, stats, err := pv.Eval(context.Background(), doc)
				if err != nil {
					errs <- err
					return
				}
				if got.String() != want.String() {
					errs <- errors.New("concurrent evaluation diverged")
					return
				}
				if len(stats.Layers) != 2 || stats.NodesVisited == 0 {
					errs <- errors.New("concurrent evaluation returned empty stats")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentComposedUserQueries evaluates the security view's user
// queries from 4 goroutines at once over one XMark document, under -race
// in CI's race guard. The view's first layer keeps the regions subtree
// live, so every run pushes and truncates its own state arenas through
// deep walks, qualifier re-entries and frontier copies: a run's arenas
// must never be shared with another run.
func TestConcurrentComposedUserQueries(t *testing.T) {
	doc := benchDoc(t, 0.01)
	pvs := prepareSecurityView(t)
	want := make([]string, len(pvs))
	for i, pv := range pvs {
		got, _, err := pv.Eval(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got.String()
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pvs {
				i := (k + g*len(pvs)/goroutines) % len(pvs) // each goroutine starts elsewhere
				got, _, err := pvs[i].Eval(context.Background(), doc)
				if err != nil {
					errs <- err
					return
				}
				if got.String() != want[i] {
					errs <- errors.New(securityViewQueries[i].name + ": concurrent evaluation diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentComposedReadsDuringMaskBuild: four goroutines answer
// the security view's user queries over one store snapshot, each read
// noting itself first as xtqd's handler does (a tree.NeedMasks read), so
// the chain's second read builds and publishes its label masks while
// other reads walk; a fifth goroutine builds the chain's image, which
// publishes the masks too when it gets there first. Every answer equals
// the unmasked one, and afterwards the chain holds its masks.
func TestConcurrentComposedReadsDuringMaskBuild(t *testing.T) {
	ctx := context.Background()
	snap, _, err := NewStore(nil).Put(ctx, "d", benchDoc(t, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	pvs := prepareSecurityView(t)
	want := make([]string, len(pvs))
	for i, pv := range pvs {
		got, _, err := pv.Eval(ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got.String()
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(1)
	go func() {
		defer wg.Done()
		imageOf(snap.Index())
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pvs {
				i := (k + g*len(pvs)/goroutines) % len(pvs)
				snap.Index().Read(tree.NeedMasks)
				got, _, err := pvs[i].Eval(ctx, snap)
				if err != nil {
					errs <- err
					return
				}
				if got.String() != want[i] {
					errs <- errors.New(securityViewQueries[i].name + ": a read during the mask build diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !snap.Index().HasMasks() {
		t.Fatal("the chain had no masks after its reads and its image build")
	}
}

func TestViewPlanCache(t *testing.T) {
	eng := NewEngine()
	v, err := eng.View(viewRedact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Prepare(viewUser); err != nil {
		t.Fatal(err)
	}
	if hits, misses, size := eng.ViewCacheStats(); hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after first Prepare: hits=%d misses=%d size=%d", hits, misses, size)
	}
	// Same stack, same user query — even via a separately built View and
	// textually different but canonically equal transform source.
	v2, err := eng.View(`transform copy $a := doc("d")
		modify do delete $a/db/part/supplier[country = "C1" or country = "C2"]/price
		return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Prepare(viewUser); err != nil {
		t.Fatal(err)
	}
	if hits, _, size := eng.ViewCacheStats(); hits != 1 || size != 1 {
		t.Fatalf("canonically equal view missed the plan cache: hits=%d size=%d", hits, size)
	}
	// A different user query keys a different plan.
	if _, err := v.Prepare(`for $x in /db/part return $x`); err != nil {
		t.Fatal(err)
	}
	if _, misses, size := eng.ViewCacheStats(); misses != 2 || size != 2 {
		t.Fatalf("distinct user query shared a plan: misses=%d size=%d", misses, size)
	}
	// PrepareQuery caches by canonical rendering too.
	q, err := ParseUserQuery(viewUser)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.PrepareQuery(q); err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := eng.ViewCacheStats(); hits != 2 {
		t.Fatalf("PrepareQuery missed the plan cache: hits=%d", hits)
	}
}

func TestViewCacheEviction(t *testing.T) {
	eng := NewEngine()
	eng.plans = newLRUCache(1, "plan")
	v, err := eng.View(viewRedact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Prepare(`for $x in /db/part return $x`); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Prepare(`for $x in /db/part/supplier return $x`); err != nil {
		t.Fatal(err)
	}
	if _, _, size := eng.ViewCacheStats(); size != 1 {
		t.Fatalf("cache size %d exceeds capacity 1", size)
	}
}

func TestViewErrors(t *testing.T) {
	eng := NewEngine()
	var xe *Error
	if _, err := eng.View(); !errors.As(err, &xe) || xe.Kind != KindCompile {
		t.Errorf("empty stack: err = %v", err)
	}
	if _, err := eng.View("transform copy nonsense"); !errors.As(err, &xe) || xe.Kind != KindParse {
		t.Errorf("bad transform: err = %v", err)
	}
	v, err := eng.View(viewRedact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Prepare("for broken"); !errors.As(err, &xe) || xe.Kind != KindParse {
		t.Errorf("bad user query: err = %v", err)
	}
	if _, err := v.PrepareQuery(nil); !errors.As(err, &xe) || xe.Kind != KindCompile {
		t.Errorf("nil user query: err = %v", err)
	}
	pv, err := v.Prepare(viewUser)
	if err != nil {
		t.Fatal(err)
	}
	// A malformed source document keeps its parse kind through Eval.
	if _, _, err := pv.Eval(context.Background(), FromString("<db><part></db>")); !errors.As(err, &xe) || xe.Kind != KindParse {
		t.Errorf("malformed source: err = %v", err)
	}
	// Pre-cancelled contexts fail deterministically with KindEval.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pv.Eval(ctx, FromString(viewDB)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Eval: err = %v", err)
	}
	if _, err := pv.EvalSequential(ctx, FromString(viewDB)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled EvalSequential: err = %v", err)
	}
	// An engine configured with an unknown method refuses to build views.
	bad := NewEngine(WithMethod(Method("bogus")))
	if _, err := bad.View(viewRedact); err == nil {
		t.Errorf("unknown method accepted by View")
	}
}

func TestViewAccessors(t *testing.T) {
	eng := NewEngine()
	v, err := eng.View(viewRedact, viewHideCountry)
	if err != nil {
		t.Fatal(err)
	}
	if v.Layer(0).String() == v.Layer(1).String() {
		t.Errorf("layers collapsed")
	}
	if !strings.Contains(v.String(), "view[") {
		t.Errorf("View.String() = %q", v.String())
	}
	pv, err := v.Prepare(viewUser)
	if err != nil {
		t.Fatal(err)
	}
	if pv.View() != v {
		t.Errorf("PreparedView.View() lost its view")
	}
	if pv.UserQuery() == nil || !strings.Contains(pv.String(), "view(") {
		t.Errorf("PreparedView accessors: q=%v s=%q", pv.UserQuery(), pv.String())
	}
}
