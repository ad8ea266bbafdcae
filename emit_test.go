package xtq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xtq/internal/core"
	"xtq/internal/obs"
	"xtq/internal/queries"
	"xtq/internal/xmark"
)

// isKind reports whether err is an *Error of kind k.
func isKind(err error, k ErrorKind) bool {
	var xe *Error
	return errors.As(err, &xe) && xe.Kind == k
}

// evalTo returns what p.EvalTo writes for src.
func evalTo(t *testing.T, p *Prepared, src Source) string {
	t.Helper()
	var b bytes.Buffer
	if err := p.EvalTo(context.Background(), src, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEvalToMatchesTreeAndCopyUpdate is the emit walk's byte oracle on
// XMark 0.01: for U1-U10 under every update kind, EvalTo writes the
// bytes of the topdown result tree emitted (sax.Emit) and of the
// copy-then-update result, on the chain's first read, when no image
// exists and nothing is pruned by label masks, and after the image is
// built. An engine forced to another method writes the same bytes.
func TestEvalToMatchesTreeAndCopyUpdate(t *testing.T) {
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
	copyEng := NewEngine(WithMethod(MethodCopyUpdate))
	for _, imaged := range []bool{false, true} {
		if imaged {
			snap.Index().Image()
		} else if snap.Index().LoadImage() != nil {
			t.Fatal("the first read found an image")
		}
		for i := 1; i <= 10; i++ {
			for _, op := range allOps {
				q := queries.TransformOp(i, op)
				p, err := st.Engine().PrepareQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Eval(ctx, snap)
				if err != nil {
					t.Fatal(err)
				}
				want := emitted(t, res)
				oracle, err := q.Eval(snap.Root(), core.MethodCopyUpdate)
				if err != nil {
					t.Fatal(err)
				}
				if w := walked(t, oracle); w != want {
					t.Fatalf("imaged=%v U%d %s: topdown differs from copyupdate", imaged, i, op)
				}
				if got := evalTo(t, p, snap); got != want {
					t.Fatalf("imaged=%v U%d %s: EvalTo differs from the emitted tree", imaged, i, op)
				}
				pc, err := copyEng.PrepareQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := evalTo(t, pc, snap); got != want {
					t.Fatalf("imaged=%v U%d %s: EvalTo on a copyupdate engine differs", imaged, i, op)
				}
			}
		}
	}
}

// failAfter is a writer that fails every write after its first n.
type failAfter struct {
	n, calls int
}

var errWriterGone = errors.New("writer gone")

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errWriterGone
	}
	return len(p), nil
}

// TestEvalToStopsAtWriteError: a failing writer stops the walk at its
// first error, which EvalTo returns as KindIO; no write follows it.
func TestEvalToStopsAtWriteError(t *testing.T) {
	doc := benchDoc(t, 0.01)
	p, err := NewEngine().PrepareQuery(queries.TransformOp(5, core.Rename))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3} {
		w := &failAfter{n: n}
		err := p.EvalTo(context.Background(), doc, w)
		if !errors.Is(err, errWriterGone) || !isKind(err, KindIO) {
			t.Fatalf("after %d writes: err = %v, want the writer's error as KindIO", n, err)
		}
		if w.calls != n+1 {
			t.Fatalf("after %d writes: %d writes, want %d", n, w.calls, n+1)
		}
	}
}

// TestEvalToCancelledWritesNothing: a context that ends before the walk
// leaves w untouched and fails with a KindEval error.
func TestEvalToCancelledWritesNothing(t *testing.T) {
	p, err := NewEngine().PrepareQuery(queries.TransformOp(4, core.Insert))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := &failAfter{n: 1 << 30}
	if err := p.EvalTo(ctx, benchDoc(t, 0.01), w); !errors.Is(err, context.Canceled) || !isKind(err, KindEval) {
		t.Fatalf("err = %v, want a KindEval cancellation", err)
	}
	if w.calls != 0 {
		t.Fatalf("a cancelled evaluation wrote %d times", w.calls)
	}
}

// topdownVisits counts the nodes topdown visits for query i's insert
// transform over snap, through the trace's visit counter.
func topdownVisits(t *testing.T, snap *Snapshot, i int) int {
	t.Helper()
	c, err := queries.Transform(i).Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, err := c.EvalContext(obs.WithTrace(context.Background(), tr), snap.Root(), core.MethodTopDown); err != nil {
		t.Fatal(err)
	}
	return tr.NodesVisited()
}

// TestTopDownVisitsWithLabelMasks pins the nodes topdown visits for the
// insert transforms of U1-U10 on XMark 0.01 seed 42: without an image,
// where only a state set that can reach no selecting transition stops a
// descent (the children of a selected node, below which U1-U3 and U8
// select nothing), and with the chain's image, whose subtree label masks
// also skip the descents that hold no label the update could still
// select. No row rises, and the four '//' queries fall by at least half.
// EvalTo's walk visits the same nodes as the tree walk. For reference,
// the walk that pruned only dead state sets visited 1171, 263, 901,
// 4335, 11409, 1771, 1837, 868, 4335 and 11409 nodes.
func TestTopDownVisitsWithLabelMasks(t *testing.T) {
	want := map[int][2]int{ // U<i>: {no image, image}
		1:  {260, 260},
		2:  {260, 260},
		3:  {260, 260},
		4:  {4335, 228},
		5:  {11409, 4548},
		6:  {1771, 1423},
		7:  {1837, 1649},
		8:  {536, 480},
		9:  {4335, 228},
		10: {11409, 1123},
	}
	st := NewStore(nil)
	snap, _, err := st.Put(context.Background(), "d", benchDoc(t, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	var got [11][2]int
	for i := 1; i <= 10; i++ {
		got[i][0] = topdownVisits(t, snap, i)
	}
	snap.Index().Image()
	for i := 1; i <= 10; i++ {
		got[i][1] = topdownVisits(t, snap, i)
		p, err := st.Engine().PrepareQuery(queries.Transform(i))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace()
		var b bytes.Buffer
		if err := p.EvalTo(obs.WithTrace(context.Background(), tr), snap, &b); err != nil {
			t.Fatal(err)
		}
		if tr.NodesVisited() != got[i][1] {
			t.Errorf("U%d: EvalTo visits %d nodes, the tree walk %d", i, tr.NodesVisited(), got[i][1])
		}
	}
	for i := 1; i <= 10; i++ {
		row := fmt.Sprintf("U%d: %d -> %d", i, got[i][0], got[i][1])
		t.Log(row)
		if got[i] != want[i] {
			t.Errorf("%s, want %d -> %d", row, want[i][0], want[i][1])
		}
		if got[i][1] > got[i][0] {
			t.Errorf("%s: the image raises the visits", row)
		}
	}
	for _, i := range []int{4, 5, 9, 10} {
		if 2*got[i][1] > got[i][0] {
			t.Errorf("U%d: %d -> %d visits, want at least a halving", i, got[i][0], got[i][1])
		}
	}
}

// TestConcurrentQueryEmitDuringImageBuild: four goroutines answer the 40
// transforms through EvalTo on one snapshot while its chain's second
// read builds and publishes the image and its label masks, as xtqd's
// handler does; every answer equals the bytes of the emitted tree.
func TestConcurrentQueryEmitDuringImageBuild(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", benchDoc(t, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	var ps []*Prepared
	var want []string
	for i := 1; i <= 10; i++ {
		for _, op := range allOps {
			p, err := st.Engine().PrepareQuery(queries.TransformOp(i, op))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Eval(ctx, snap)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
			want = append(want, walked(t, res))
		}
	}
	if snap.Index().LoadImage() != nil {
		t.Fatal("image built before the reads")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ps {
				j := (k + 10*g) % len(ps)
				snap.Image()
				var b bytes.Buffer
				if err := ps[j].EvalTo(ctx, snap, &b); err != nil {
					errs <- err
					return
				}
				if b.String() != want[j] {
					errs <- fmt.Errorf("goroutine %d, query %d: EvalTo differs from the tree", g, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if snap.Index().LoadImage() == nil {
		t.Fatal("no image was built")
	}
}
