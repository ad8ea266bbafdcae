package xtq

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

// emitted serializes n the way xtqd answers a query: sax.Emit into a
// sax.Writer, which copies every subtree a chain image covers.
func emitted(t *testing.T, n *tree.Node) string {
	t.Helper()
	var b bytes.Buffer
	sw := sax.NewWriter(&b)
	if err := sax.Emit(n, sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// walked serializes n without any image: an unstamped deep copy, which
// no chain covers.
func walked(t *testing.T, n *tree.Node) string { return emitted(t, n.DeepCopy()) }

// copiesFromImage reports whether img covers some node of the tree at n,
// i.e. whether emitting n copies at least one subtree from it.
func copiesFromImage(n *tree.Node, img *tree.Image) bool {
	stack := []*tree.Node{n}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if img.Subtree(x) != nil {
			return true
		}
		stack = append(stack, x.Children...)
	}
	return false
}

var allOps = []core.Op{core.Insert, core.Delete, core.Rename, core.Replace}

// TestImageEmitMatchesCopyUpdate: for U1-U10 under every update kind, the
// topdown result over an imaged snapshot serializes to the same bytes
// through the image, walked, and as the copy-then-update oracle's result
// — and the image is actually used. The same holds for a maintained view
// (update_commit's layers: delete U5, then rename U1 as member) across 40
// note insert/delete commits, against the sequential materialization:
// before the view's own chain image exists, and after it, when every
// read copies from it.
func TestImageEmitMatchesCopyUpdate(t *testing.T) {
	ctx := context.Background()
	for _, factor := range []float64{0.001, 0.01} {
		doc, err := xmark.Generate(xmark.Config{Factor: factor, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(nil)
		if _, _, err := st.Put(ctx, "d", doc); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot("d")
		if err != nil {
			t.Fatal(err)
		}
		img, _ := snap.Index().Image()
		for i := 1; i <= 10; i++ {
			for _, op := range allOps {
				c, err := queries.TransformOp(i, op).Compile()
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.EvalContext(ctx, snap.Root(), core.MethodTopDown)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := c.EvalContext(ctx, snap.Root(), core.MethodCopyUpdate)
				if err != nil {
					t.Fatal(err)
				}
				want := walked(t, oracle)
				if got := walked(t, res); got != want {
					t.Fatalf("%g U%d %s: topdown differs from copyupdate", factor, i, op)
				}
				if got := emitted(t, res); got != want {
					t.Fatalf("%g U%d %s: emission through the image differs", factor, i, op)
				}
				if !copiesFromImage(res, img) {
					t.Fatalf("%g U%d %s: the result shares nothing the image covers", factor, i, op)
				}
			}
		}
	}

	doc, err := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(nil)
	if _, _, err := st.Put(ctx, "d", doc); err != nil {
		t.Fatal(err)
	}
	transform := func(op string) string {
		return `transform copy $a := doc("d") modify do ` + op + ` return $a`
	}
	v, err := st.RegisterView("v", transform("delete $a"+queries.U[5]), transform("rename $a"+queries.U[1]+" as member"))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := v.Prepare(`for $x in /site return $x`)
	if err != nil {
		t.Fatal(err)
	}
	person := `$a/site/people/person[@id = "person10"]`
	var chain *tree.Index // stamped by the view's first, full materialization
	for step := 0; step <= 40; step++ {
		op := ""
		if step > 0 {
			op = "insert <bench_note/> into " + person
			if step%2 == 0 {
				op = "delete " + person + "/bench_note"
			}
		}
		snap, err := st.Snapshot("d")
		if op != "" {
			snap, _, err = st.Apply(ctx, "d", transform(op))
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.ViewAt(ctx, snap, "v"); err != nil {
			t.Fatal(err)
		}
		seq, err := whole.EvalSequential(ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		want := walked(t, seq)
		want = want[len("<result>") : len(want)-len("</result>")]
		img := snap.Index().LoadImage()
		if step == 1 {
			// Imaged between the two commits: the delete's version
			// shares every subtree the image covers but the new spine.
			img, _ = snap.Index().Image()
		}
		res, stats, err := st.ViewAt(ctx, snap, "v")
		if err != nil {
			t.Fatal(err)
		}
		if step > 0 && stats.Source != "cache" {
			t.Fatalf("step %d: view served from %q, want the maintained cache", step, stats.Source)
		}
		if got := walked(t, res); got != want {
			t.Fatalf("step %d (%s): maintained view differs from the sequential materialization", step, op)
		}
		if got := emitted(t, res); got != want {
			t.Fatalf("step %d (%s): emission through the image differs", step, op)
		}
		if copies := copiesFromImage(res, img); copies != (img != nil) {
			t.Fatalf("step %d (%s): view copies from the base image: %v, want %v", step, op, copies, img != nil)
		}
		if step == 0 {
			// Two reads: the materialization, and the first read served
			// from the entry. The next one builds the view's image.
			if chain = tree.IndexOf(res); chain == nil || chain.LoadImage() != nil {
				t.Fatal("the first materialization is not a chain without an image")
			}
			continue
		}
		vimg := chain.LoadImage()
		if vimg == nil {
			t.Fatalf("step %d: no view image after %d reads served from the entry", step, 2*step)
		}
		// Mark the image's letters: what the read copies from it shows.
		whole := vimg.Subtree(chain.Root)
		saved := append([]byte(nil), whole...)
		copy(whole, upperASCII(saved))
		got := emitted(t, res)
		copy(whole, saved)
		if got == want || upperASCII([]byte(got)) != upperASCII([]byte(want)) {
			t.Fatalf("step %d (%s): the view read does not copy from the view's image", step, op)
		}
	}
}

// upperASCII returns b with its ASCII letters upper-cased, as a string.
func upperASCII(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// TestImageAcrossVersions builds the image at version 1 and commits 60
// edits of FuzzSoARoundTrip's mix, one of them a deletion that forces a
// compaction into a new chain. At every version, Snapshot.WriteXML and
// query results through the image equal the plain walk (and the query
// results the copy-then-update oracle), as does the emit walk pruned by
// the label masks the image build publishes, and every earlier version
// still serializes to the bytes it had.
func TestImageAcrossVersions(t *testing.T) {
	ctx := context.Background()
	var doc strings.Builder
	doc.WriteString("<db>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&doc, `<part id="%d"><pname>p%d &amp; co</pname><price>%d</price></part>`, i, i, i)
	}
	doc.WriteString("<big>" + strings.Repeat("<x>v</x>", 2500) + "</big></db>")
	const compactAt = 30

	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", FromString(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	img, _ := snap.Index().Image()
	reads := []*core.Compiled{}
	for _, q := range []string{
		`transform copy $a := doc("d") modify do rename $a//pname as label return $a`,
		`transform copy $a := doc("d") modify do insert <nw>n</nw> into $a//part[price > 20] return $a`,
		`transform copy $a := doc("d") modify do delete $a//zz return $a`,
	} {
		p, err := core.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, c)
	}
	bytesOf := func(s *Snapshot) string {
		var b strings.Builder
		if err := s.WriteXML(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	type version struct {
		snap *Snapshot
		xml  string
	}
	history := []version{{snap, snap.Root().DeepCopy().String()}}
	rng := rand.New(rand.NewSource(1))
	labels := []string{"part", "pname", "price", "nw", "zz"}
	chains := 0
	for k := 1; k <= 60; k++ {
		lb := labels[rng.Intn(len(labels))]
		var q string
		switch {
		case k == compactAt:
			q = `delete $a//big`
		case rng.Intn(4) == 0:
			q = "delete $a//" + lb
		case rng.Intn(3) == 0:
			q = "rename $a//" + lb + " as zz"
		case rng.Intn(2) == 0:
			q = "insert <nw>n</nw> into $a//" + lb
		default:
			q = "rename $a//zz as " + lb
		}
		prev := snap
		snap, _, err = st.Apply(ctx, "d", `transform copy $a := doc("d") modify do `+q+` return $a`)
		if err != nil {
			t.Fatal(err)
		}
		if cur := snap.Index().LoadImage(); cur != prev.Index().LoadImage() {
			chains++
			if cur != nil || k != compactAt {
				t.Fatalf("commit %d moved to another image (compaction is forced at %d only)", k, compactAt)
			}
		} else if k < compactAt && cur != img {
			t.Fatalf("commit %d: the chain's image was replaced", k)
		}
		plain := snap.Root().DeepCopy().String()
		if got := bytesOf(snap); got != plain {
			t.Fatalf("commit %d (%s): WriteXML through the image differs from the walk", k, q)
		}
		for _, c := range reads {
			res, err := c.EvalContext(ctx, snap.Root(), core.MethodTopDown)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := c.EvalContext(ctx, snap.Root(), core.MethodCopyUpdate)
			if err != nil {
				t.Fatal(err)
			}
			want := walked(t, oracle)
			snap.Image() // the compaction's new chain is imaged on its second read
			if got := emitted(t, res); got != want {
				t.Fatalf("commit %d (%s): query result through the image differs", k, q)
			}
			var b strings.Builder
			if _, err := core.EmitTopDown(ctx, c, snap.Root(), &b); err != nil {
				t.Fatal(err)
			}
			if b.String() != want {
				t.Fatalf("commit %d (%s): the emit walk over the chain's masks differs", k, q)
			}
		}
		for _, v := range history {
			if bytesOf(v.snap) != v.xml {
				t.Fatalf("commit %d changed version %d", k, v.snap.Version())
			}
		}
		history = append(history, version{snap, plain})
	}
	if chains != 1 {
		t.Fatalf("%d chain changes, want exactly the forced compaction", chains)
	}
}

// TestConcurrentViewReadsDuringCommits: four readers serve three
// maintained views of whatever snapshot is current — cache hits, reads
// published ahead of the commit hook (run by delta), and the read that
// builds the view chain's image — while a writer commits note inserts
// and deletes and updates that flip the qualifiers of the two qualified
// views: q0's on its first layer (item location) and q1's on its second
// (bidder increase, read from the first layer's output). Every body
// equals the sequential materialization at the version read.
func TestConcurrentViewReadsDuringCommits(t *testing.T) {
	ctx := context.Background()
	doc, err := xmark.Generate(xmark.Config{Factor: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", doc)
	if err != nil {
		t.Fatal(err)
	}
	transform := func(op string) string {
		return `transform copy $a := doc("d") modify do ` + op + ` return $a`
	}
	views := map[string][]string{
		"v":  {transform("delete $a" + queries.U[5]), transform("rename $a" + queries.U[1] + " as member")},
		"q0": {transform("delete $a" + queries.U[9]), transform("rename $a" + queries.U[1] + " as member")},
		"q1": {transform("rename $a//open_auction as auction"), transform("delete $a//auction/bidder[increase > 10]")},
	}
	names := []string{"v", "q0", "q1"}
	wholes := map[string]*PreparedView{}
	for name, layers := range views {
		v, err := st.RegisterView(name, layers...)
		if err != nil {
			t.Fatal(err)
		}
		if wholes[name], err = v.Prepare(`for $x in /site return $x`); err != nil {
			t.Fatal(err)
		}
	}
	body := func(n *tree.Node) (string, error) {
		var b bytes.Buffer
		sw := sax.NewWriter(&b)
		if err := sax.Emit(n, sw); err != nil {
			return "", err
		}
		return b.String(), sw.Flush()
	}
	type key struct {
		view    string
		version uint64
	}
	var want sync.Map // key → the sequential materialization's bytes
	record := func(snap *Snapshot) {
		for name, whole := range wholes {
			seq, err := whole.EvalSequential(ctx, snap)
			if err != nil {
				t.Fatal(err)
			}
			b := walked(t, seq)
			want.Store(key{name, snap.Version()}, b[len("<result>"):len(b)-len("</result>")])
		}
	}
	record(snap)
	first, _, err := st.ViewAt(ctx, snap, "v")
	if err != nil {
		t.Fatal(err)
	}
	chain := tree.IndexOf(first)

	type read struct {
		key
		sum [sha256.Size]byte
	}
	reads := make([][]read, 4)
	errs := make(chan error, len(reads))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; !stop.Load(); j++ {
				name := names[j%len(names)]
				snap, err := st.Snapshot("d")
				if err == nil {
					var res *tree.Node
					if res, _, err = st.ViewAt(ctx, snap, name); err == nil {
						var b string
						if b, err = body(res); err == nil {
							reads[i] = append(reads[i], read{key{name, snap.Version()}, sha256.Sum256([]byte(b))})
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	person := `$a/site/people/person[@id = "person3"]`
	item := `$a/site/regions//item[@id = "item0"]`
	bidder := `$a/site/open_auctions/open_auction[@id = "open_auction0"]/bidder`
	ops := []string{
		"insert <bench_note/> into " + person,
		"delete " + person + "/bench_note",
		"replace " + item + "/location with <location>United States</location>",
		"insert <increase>50</increase> into " + bidder,
		"replace " + item + "/location with <location>Japan</location>",
		"delete " + bidder + "/increase",
	}
	for k := 0; k < 30; k++ {
		if snap, _, err = st.Apply(ctx, "d", transform(ops[k%len(ops)])); err != nil {
			t.Fatal(err)
		}
		record(snap)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := 0
	for _, rs := range reads {
		for _, r := range rs {
			b, ok := want.Load(r.key)
			if !ok || sha256.Sum256([]byte(b.(string))) != r.sum {
				t.Fatalf("view %s read at version %d differs from the sequential materialization", r.view, r.version)
			}
			n++
		}
	}
	if chain == nil || chain.LoadImage() == nil {
		t.Fatalf("%d reads built no image of the view chain", n)
	}
}
