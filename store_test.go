package xtq_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xtq"
)

const storeDoc = `<db>` +
	`<part><pname>keyboard</pname><supplier><sname>HP</sname><price>15</price><country>US</country></supplier></part>` +
	`<part><pname>mouse</pname><supplier><sname>Dell</sname><price>9</price><country>A</country></supplier></part>` +
	`</db>`

func storeKind(t *testing.T, err error) xtq.ErrorKind {
	t.Helper()
	var xe *xtq.Error
	if !errors.As(err, &xe) {
		t.Fatalf("error %v is not *xtq.Error", err)
	}
	return xe.Kind
}

func TestStoreRoundTrip(t *testing.T) {
	ctx := context.Background()
	st := xtq.NewStore(nil)

	snap, com, err := st.Put(ctx, "parts", xtq.FromString(storeDoc))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 1 || com.Version != 1 {
		t.Fatalf("ingest version = %d", snap.Version())
	}
	if com.CopiedNodes != 0 {
		t.Fatalf("parsed ingest should adopt, copied %d nodes", com.CopiedNodes)
	}

	// Prepared queries evaluate against the snapshot as a Source.
	p, err := st.Engine().Prepare(`transform copy $a := doc("parts") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Eval(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.String(), "<price>") {
		t.Fatal("delete did not apply on read")
	}
	// ... and as a streaming source (Open → parse twice).
	var buf bytes.Buffer
	if _, err := p.EvalStream(ctx, snap, xtq.ToWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<price>") {
		t.Fatal("streaming evaluation over snapshot diverges")
	}

	// Commit the same update: readers of v1 unaffected, v2 has no prices.
	snap2, com2, err := st.Apply(ctx, "parts",
		`transform copy $a := doc("parts") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version() != 2 || com2.CopiedNodes == 0 {
		t.Fatalf("commit: version=%d copied=%d", snap2.Version(), com2.CopiedNodes)
	}
	if !strings.Contains(snap.Root().String(), "<price>") {
		t.Fatal("v1 snapshot lost its prices")
	}
	if strings.Contains(snap2.Root().String(), "<price>") {
		t.Fatal("v2 snapshot kept its prices")
	}
	if cur, _ := st.Snapshot("parts"); cur.Version() != 2 {
		t.Fatal("Snapshot does not serve the latest version")
	}
}

func TestStoreApplyAtConflictKind(t *testing.T) {
	ctx := context.Background()
	st := xtq.NewStore(nil)
	if _, _, err := st.Put(ctx, "d", xtq.FromString(storeDoc)); err != nil {
		t.Fatal(err)
	}
	up := `transform copy $a := doc("d") modify do insert <audit/> into $a/db/part return $a`
	if _, _, err := st.ApplyAt(ctx, "d", up, 1); err != nil {
		t.Fatal(err)
	}
	_, _, err := st.ApplyAt(ctx, "d", up, 1)
	if storeKind(t, err) != xtq.KindConflict {
		t.Fatalf("stale ApplyAt kind = %v, want conflict", err)
	}
	if _, err := st.Snapshot("missing"); storeKind(t, err) != xtq.KindNotFound {
		t.Fatal("missing doc kind != notfound")
	}
	if _, _, err := st.Apply(ctx, "d", `transform nonsense`); storeKind(t, err) != xtq.KindParse {
		t.Fatal("bad update query kind != parse")
	}
}

func TestStorePutDoesNotAliasCallerTree(t *testing.T) {
	ctx := context.Background()
	st := xtq.NewStore(nil)
	doc, err := xtq.ParseString(storeDoc)
	if err != nil {
		t.Fatal(err)
	}
	snap, com, err := st.Put(ctx, "d", doc)
	if err != nil {
		t.Fatal(err)
	}
	if com.CopiedNodes == 0 || snap.Root() == doc {
		t.Fatal("caller tree was adopted, not copied")
	}
	// The caller's tree still takes in-place updates (it is not sealed).
	p, err := xtq.NewEngine(xtq.WithMethod(xtq.MethodCopyUpdate)).Prepare(
		`transform copy $a := doc("d") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(ctx, doc); err != nil {
		t.Fatal(err)
	}

	// Putting a snapshot under a second name copies too.
	snapB, comB, err := st.Put(ctx, "copy", snap)
	if err != nil {
		t.Fatal(err)
	}
	if comB.CopiedNodes == 0 || snapB.Root() == snap.Root() {
		t.Fatal("snapshot re-put aliased the sealed tree")
	}
}

func TestStoreViewsOverSnapshots(t *testing.T) {
	ctx := context.Background()
	st := xtq.NewStore(nil)
	if _, _, err := st.Put(ctx, "parts", xtq.FromString(storeDoc)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RegisterView("public",
		`transform copy $a := doc("parts") modify do delete $a//price return $a`,
		`transform copy $a := doc("parts") modify do delete $a//country return $a`,
	); err != nil {
		t.Fatal(err)
	}
	if got := st.ViewNames(); len(got) != 1 || got[0] != "public" {
		t.Fatalf("ViewNames = %v", got)
	}
	v, err := st.LookupView("public")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := st.Snapshot("parts")

	// Materialize the stack over the snapshot.
	mat, err := v.Materialize(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	s := mat.String()
	if strings.Contains(s, "<price>") || strings.Contains(s, "<country>") {
		t.Fatalf("view leaked hidden elements: %s", s)
	}

	// Compose a user query with the stack, answered over the snapshot.
	pv, err := v.Prepare(`for $x in /db/part/supplier return <entry>{$x/sname}</entry>`)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := pv.Eval(ctx, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Layers) != 2 {
		t.Fatalf("stats for %d layers", len(stats.Layers))
	}
	if !strings.Contains(res.String(), "<sname>HP</sname>") {
		t.Fatalf("composed view result wrong: %s", res)
	}

	if _, err := st.LookupView("nope"); storeKind(t, err) != xtq.KindNotFound {
		t.Fatal("missing view kind != notfound")
	}
	if !st.RemoveView("public") || st.RemoveView("public") {
		t.Fatal("RemoveView bookkeeping wrong")
	}
}

// TestStoreConcurrentFacade drives the public API with 8 readers (half
// prepared queries, half composed views) and one writer — the facade
// variant of the internal concurrency tests, run under -race in CI.
func TestStoreConcurrentFacade(t *testing.T) {
	ctx := context.Background()
	st := xtq.NewStore(nil)
	if _, _, err := st.Put(ctx, "parts", xtq.FromString(storeDoc)); err != nil {
		t.Fatal(err)
	}
	p, err := st.Engine().Prepare(`transform copy $a := doc("parts") modify do rename $a//supplier as vendor return $a`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.RegisterView("nopx",
		`transform copy $a := doc("parts") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Prepare(`for $x in /db/part return <row>{$x/pname}</row>`)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := st.Snapshot("parts")
				if err != nil {
					panic(err)
				}
				if i%2 == 0 {
					if _, err := p.Eval(ctx, snap); err != nil {
						panic(err)
					}
				} else {
					if _, _, err := pv.Eval(ctx, snap); err != nil {
						panic(err)
					}
				}
			}
		}(i)
	}
	up := `transform copy $a := doc("parts") modify do insert <audit/> into $a/db/part return $a`
	var last uint64
	for i := 0; i < 20; i++ {
		snap, _, err := st.Apply(ctx, "parts", up)
		if err != nil {
			t.Error(err)
			break
		}
		last = snap.Version()
	}
	close(stop)
	wg.Wait()
	if last != 21 {
		t.Fatalf("final version = %d, want 21", last)
	}
}

// TestOpenStoreDurableFacade exercises the facade durable path:
// recovery replays logged update text through the engine's Prepare
// (sharing its query cache), version history is servable, and a damaged
// log surfaces as KindCorrupt.
func TestOpenStoreDurableFacade(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st, err := xtq.OpenStore(dir, nil, xtq.WithFsync(xtq.FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable() {
		t.Fatal("OpenStore returned a non-durable store")
	}
	if _, _, err := st.Put(ctx, "parts", xtq.FromString(storeDoc)); err != nil {
		t.Fatal(err)
	}
	del := `transform copy $a := doc("parts") modify do delete $a//price return $a`
	if _, _, err := st.Apply(ctx, "parts", del); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a fresh engine: recovery goes through Prepare, so the
	// replayed query lands in the engine cache.
	eng := xtq.NewEngine()
	st2, err := xtq.OpenStore(dir, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, misses, size := eng.CacheStats(); misses != 1 || size != 1 {
		t.Fatalf("recovery did not warm the query cache: misses=%d size=%d", misses, size)
	}
	snap, err := st2.Snapshot("parts")
	if err != nil || snap.Version() != 2 {
		t.Fatalf("recovered snapshot: %v, %v", snap, err)
	}
	if strings.Contains(snap.Root().String(), "<price>") {
		t.Fatal("recovered state missing the update")
	}
	old, err := st2.SnapshotAt(ctx, "parts", 1)
	if err != nil || !strings.Contains(old.Root().String(), "<price>") {
		t.Fatalf("time travel to v1: %v", err)
	}
	entries, floor, err := st2.History("parts")
	if err != nil || floor != 1 || len(entries) != 2 {
		t.Fatalf("history = %v, floor %d, %v", entries, floor, err)
	}
	if ok, err := st2.Remove("parts"); err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	if stats, err := st2.Checkpoint(ctx); err != nil || stats.TombstonesGCd != 1 {
		t.Fatalf("checkpoint = %+v, %v", stats, err)
	}
	st2.Close()

	// Flip a byte mid-log → KindCorrupt with a position.
	st3, err := xtq.OpenStore(dir, nil, xtq.WithFsync(xtq.FsyncNone), xtq.WithSegmentBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st3.Put(ctx, "parts", xtq.FromString(storeDoc)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st3.Apply(ctx, "parts", del); err != nil {
		t.Fatal(err)
	}
	st3.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil || len(b) == 0 {
		t.Fatalf("read segment: %v", err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = xtq.OpenStore(dir, nil)
	var xe *xtq.Error
	if !errors.As(err, &xe) || xe.Kind != xtq.KindCorrupt || xe.Pos == "" {
		t.Fatalf("corrupt log opened as %v", err)
	}
}
