package store

import (
	"context"
	"errors"
	"sync"
	"testing"

	"xtq/internal/core"
	"xtq/internal/sax"
	"xtq/internal/tree"
	"xtq/internal/xerr"
	"xtq/internal/xmark"
)

const partsXML = `<db>` +
	`<part><pname>keyboard</pname><supplier><sname>HP</sname><price>15</price><country>US</country></supplier></part>` +
	`<part><pname>mouse</pname><supplier><sname>Dell</sname><price>9</price><country>A</country></supplier></part>` +
	`</db>`

func parse(t *testing.T, xml string) *tree.Node {
	t.Helper()
	d, err := sax.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compile(t *testing.T, src string) *core.Compiled {
	t.Helper()
	c, err := core.MustParseQuery(src).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kindOf(t *testing.T, err error) xerr.Kind {
	t.Helper()
	var xe *xerr.Error
	if !errors.As(err, &xe) {
		t.Fatalf("error %v is not *xerr.Error", err)
	}
	return xe.Kind
}

func TestPutSnapshotVersioning(t *testing.T) {
	st := New()

	if _, err := st.Snapshot("parts"); kindOf(t, err) != xerr.NotFound {
		t.Fatal("missing doc must be notfound")
	}

	// Adopted ingest: the parsed tree is handed over, no copy.
	doc := parse(t, partsXML)
	snap, com, err := st.Put("parts", doc, true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 1 || com.Version != 1 {
		t.Fatalf("first ingest version = %d", snap.Version())
	}
	if com.CopiedNodes != 0 {
		t.Fatalf("adopted ingest copied %d nodes", com.CopiedNodes)
	}
	if snap.Root() != doc {
		t.Fatal("adopted ingest did not take the tree")
	}
	if snap.Index() != tree.IndexOf(doc) || snap.NumNodes() != doc.Size() {
		t.Fatal("adopted ingest did not keep the parsed index as the chain head")
	}

	// Copied ingest: the caller keeps its tree.
	mine := parse(t, partsXML)
	snap2, com2, err := st.Put("parts", mine, false)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Version() != 2 {
		t.Fatalf("re-ingest version = %d, want 2", snap2.Version())
	}
	if com2.CopiedNodes != mine.Size() {
		t.Fatalf("copied ingest copied %d nodes, want %d", com2.CopiedNodes, mine.Size())
	}
	if snap2.Root() == mine {
		t.Fatal("copied ingest aliased the caller's tree")
	}
	// The caller's tree keeps its own index, which heads no chain.
	if ix := tree.IndexOf(mine); ix == nil || ix == snap2.Index() || ix.Live != 0 {
		t.Fatal("copied ingest adopted the caller's index")
	}

	// Adopt requested for another snapshot's root: must copy.
	snap3, com3, err := st.Put("parts2", snap2.Root(), true)
	if err != nil {
		t.Fatal(err)
	}
	if com3.CopiedNodes == 0 || snap3.Root() == snap2.Root() {
		t.Fatal("snapshot tree was adopted instead of copied")
	}

	names := st.Names()
	if len(names) != 2 || st.Len() != 2 {
		t.Fatalf("Names = %v", names)
	}
}

func TestApplyCommitsNewVersion(t *testing.T) {
	st := New()
	ctx := context.Background()
	base := parse(t, partsXML)
	baseXML := base.String()
	if _, _, err := st.Put("parts", base, true); err != nil {
		t.Fatal(err)
	}

	del := compile(t, `transform copy $a := doc("parts") modify do delete $a//price return $a`)
	v1, _ := st.Snapshot("parts")
	snap, com, err := st.Apply(ctx, "parts", del, core.MethodTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 2 || com.Version != 2 {
		t.Fatalf("version = %d, want 2", snap.Version())
	}
	// The old snapshot is untouched: readers holding v1 see version 1.
	if v1.Root().String() != baseXML {
		t.Fatal("commit mutated the previous snapshot")
	}
	if snap.Root().String() == baseXML {
		t.Fatal("commit did not apply the update")
	}
	// The commit is a path copy: only the spine from the deleted nodes
	// to the root is copied, the untouched subtrees are shared with the
	// previous version by reference.
	if com.CopiedNodes == 0 || com.CopiedNodes >= snap.NumNodes() {
		t.Fatalf("CopiedNodes = %d, want 0 < n < %d (path copy, not whole tree)",
			com.CopiedNodes, snap.NumNodes())
	}
	if com.SharedWithPrev == 0 {
		t.Fatal("update evaluation shared nothing with the previous version")
	}
	if com.CopiedBytes <= 0 {
		t.Fatal("CopiedBytes not reported")
	}
	// The new version owns its spine and, through the chain, its
	// aliased subtrees: every node it reaches.
	if tree.IndexOf(snap.Root()) != snap.Index() || snap.NumNodes() != snap.Root().Size() {
		t.Fatal("new snapshot is not its root's chain index")
	}
	var unowned []*tree.Node
	stack := []*tree.Node{snap.Root()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !snap.Index().Contains(n) {
			unowned = append(unowned, n)
		}
		stack = append(stack, n.Children...)
	}
	if len(unowned) != 0 {
		t.Fatalf("new snapshot does not own %d of its nodes", len(unowned))
	}

	// No-op update: version advances, tree and index shared with v2 —
	// zero-copy for every evaluation method, not just topDown's
	// identity-returning fast path (naive and copyupdate always build a
	// fresh root, which the store detects structurally).
	noop := compile(t, `transform copy $a := doc("parts") modify do delete $a//nosuchlabel return $a`)
	wantV := snap.Version()
	for _, m := range core.Methods() {
		snapN, comN, err := st.Apply(ctx, "parts", noop, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		wantV++
		if snapN.Version() != wantV {
			t.Fatalf("%s: no-op version = %d, want %d", m, snapN.Version(), wantV)
		}
		if comN.CopiedNodes != 0 || snapN.Root() != snap.Root() {
			t.Fatalf("%s: no-op commit copied the tree (%d nodes)", m, comN.CopiedNodes)
		}
	}

	// Copy tax: on an XMark document, commits alternating the rename of
	// every /site/regions//item to item_ and back copy the touched spines
	// only, a small fraction of what freezing the whole tree copies
	// (adopt=false makes Put report that full-copy cost). A whole-tree
	// copy per commit would read ~100 %.
	xdoc, err := xmark.Generate(xmark.Config{Factor: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, put, err := st.Put("xmark", xdoc, false)
	if err != nil {
		t.Fatal(err)
	}
	if put.CopiedBytes <= 0 {
		t.Fatalf("Put reported %d copied bytes; cannot size the document", put.CopiedBytes)
	}
	renames := []*core.Compiled{
		compile(t, `transform copy $a := doc("xmark") modify do rename $a/site/regions//item as item_ return $a`),
		compile(t, `transform copy $a := doc("xmark") modify do rename $a/site/regions//item_ as item return $a`),
	}
	const commits = 20
	var copied int64
	for i := 0; i < commits; i++ {
		_, com, err := st.Apply(ctx, "xmark", renames[i%2], core.MethodTopDown)
		if err != nil {
			t.Fatal(err)
		}
		if com.CopiedNodes == 0 {
			t.Fatalf("commit %d copied nothing: the rename did not apply", i)
		}
		copied += com.CopiedBytes
	}
	frac := float64(copied) / commits / float64(put.CopiedBytes)
	t.Logf("copy tax: %.0f B/commit over a %d B frozen document (%.1f%%)",
		float64(copied)/commits, put.CopiedBytes, 100*frac)
	if frac >= 0.10 {
		t.Errorf("copy tax %.1f%% of the frozen document per commit, want < 10%%", 100*frac)
	}
}

func TestApplyAtConflict(t *testing.T) {
	st := New()
	ctx := context.Background()
	if _, _, err := st.Put("parts", parse(t, partsXML), true); err != nil {
		t.Fatal(err)
	}
	ins := compile(t, `transform copy $a := doc("parts") modify do insert <audit/> into $a/db/part return $a`)

	// CAS at the right version succeeds.
	snap, _, err := st.ApplyAt(ctx, "parts", ins, core.MethodTopDown, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 2 {
		t.Fatalf("version = %d", snap.Version())
	}

	// CAS at the stale version conflicts, and nothing is committed.
	_, _, err = st.ApplyAt(ctx, "parts", ins, core.MethodTopDown, 1)
	if kindOf(t, err) != xerr.Conflict {
		t.Fatalf("stale ApplyAt = %v, want conflict", err)
	}
	if cur, _ := st.Snapshot("parts"); cur.Version() != 2 {
		t.Fatalf("failed CAS advanced the version to %d", cur.Version())
	}

	// Base 0 is rejected (it would mean "any version" by accident).
	if _, _, err := st.ApplyAt(ctx, "parts", ins, core.MethodTopDown, 0); kindOf(t, err) != xerr.Conflict {
		t.Fatalf("ApplyAt(0) = %v", err)
	}

	if _, _, err := st.Apply(ctx, "missing", ins, core.MethodTopDown); kindOf(t, err) != xerr.NotFound {
		t.Fatal("Apply on missing doc must be notfound")
	}
}

func TestApplyCancellation(t *testing.T) {
	st := New()
	if _, _, err := st.Put("parts", parse(t, partsXML), true); err != nil {
		t.Fatal(err)
	}
	del := compile(t, `transform copy $a := doc("parts") modify do delete $a//price return $a`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := st.Apply(ctx, "parts", del, core.MethodTopDown)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Apply = %v", err)
	}
	if snap, _ := st.Snapshot("parts"); snap.Version() != 1 {
		t.Fatal("cancelled Apply committed")
	}
}

func TestRemove(t *testing.T) {
	st := New()
	ctx := context.Background()
	if _, _, err := st.Put("parts", parse(t, partsXML), true); err != nil {
		t.Fatal(err)
	}
	held, _ := st.Snapshot("parts")
	if ok, err := st.Remove("parts"); err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	if ok, err := st.Remove("parts"); err != nil || ok {
		t.Fatalf("double Remove = %v, %v", ok, err)
	}
	if _, err := st.Snapshot("parts"); kindOf(t, err) != xerr.NotFound {
		t.Fatal("removed doc must be notfound")
	}
	// A held handle keeps working.
	if held.Root().String() == "" {
		t.Fatal("held snapshot broken")
	}
	del := compile(t, `transform copy $a := doc("parts") modify do delete $a//price return $a`)
	if _, _, err := st.Apply(ctx, "parts", del, core.MethodTopDown); kindOf(t, err) != xerr.NotFound {
		t.Fatal("Apply after Remove must be notfound")
	}
	if _, _, err := st.History("parts"); kindOf(t, err) != xerr.NotFound {
		t.Fatal("History after Remove must be notfound")
	}
	// The removal is itself a committed version: the tombstone sits at
	// v2, so re-ingesting continues the chain at v3 instead of
	// restarting it — SnapshotAt history stays unambiguous.
	snap, _, err := st.Put("parts", parse(t, partsXML), true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 3 {
		t.Fatalf("re-created doc version = %d, want 3", snap.Version())
	}
	// The tombstone version itself is not servable.
	if _, err := st.SnapshotAt(ctx, "parts", 2); kindOf(t, err) != xerr.NotFound {
		t.Fatal("tombstone version must be notfound")
	}
	// Removal dropped the resident history with the document (so the
	// removed trees are collectible): the pre-removal version is gone
	// from an in-memory store. A held handle is the way to keep it.
	if _, err := st.SnapshotAt(ctx, "parts", 1); kindOf(t, err) != xerr.NotFound {
		t.Fatal("pre-removal version must be forgotten by an in-memory store")
	}
}

// TestConcurrentReadersOneWriter is the acceptance shape of the store:
// 8 readers evaluating a prepared query over snapshots, lock-free, while
// one writer commits updates — run under -race in CI.
func TestConcurrentReadersOneWriter(t *testing.T) {
	st := New()
	ctx := context.Background()
	if _, _, err := st.Put("parts", parse(t, partsXML), true); err != nil {
		t.Fatal(err)
	}
	read := compile(t, `transform copy $a := doc("parts") modify do rename $a//supplier as vendor return $a`)
	write := compile(t, `transform copy $a := doc("parts") modify do insert <audit/> into $a/db/part return $a`)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
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
				if _, err := read.EvalContext(ctx, snap.Root(), core.MethodTopDown); err != nil {
					panic(err)
				}
			}
		}()
	}
	var last uint64
	for i := 0; i < 25; i++ {
		snap, _, err := st.Apply(ctx, "parts", write, core.MethodTopDown)
		if err != nil {
			t.Error(err)
			break
		}
		if snap.Version() <= last {
			t.Errorf("version did not advance: %d -> %d", last, snap.Version())
			break
		}
		last = snap.Version()
	}
	close(stop)
	wg.Wait()
	if last != 26 {
		t.Fatalf("final version = %d, want 26", last)
	}
}

// TestConcurrentWritersCAS exercises optimistic concurrency: many
// ApplyAt writers race from the same base; exactly one wins per round.
func TestConcurrentWritersCAS(t *testing.T) {
	st := New()
	ctx := context.Background()
	if _, _, err := st.Put("parts", parse(t, partsXML), true); err != nil {
		t.Fatal(err)
	}
	ins := compile(t, `transform copy $a := doc("parts") modify do insert <audit/> into $a/db/part return $a`)

	for round := 0; round < 5; round++ {
		base, _ := st.Snapshot("parts")
		const writers = 4
		errs := make([]error, writers)
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, errs[i] = st.ApplyAt(ctx, "parts", ins, core.MethodTopDown, base.Version())
			}(i)
		}
		wg.Wait()
		wins, conflicts := 0, 0
		for _, err := range errs {
			switch {
			case err == nil:
				wins++
			case kindOf(t, err) == xerr.Conflict:
				conflicts++
			default:
				t.Fatalf("unexpected error %v", err)
			}
		}
		if wins != 1 || conflicts != writers-1 {
			t.Fatalf("round %d: wins=%d conflicts=%d", round, wins, conflicts)
		}
		cur, _ := st.Snapshot("parts")
		if cur.Version() != base.Version()+1 {
			t.Fatalf("round %d: version %d, want %d", round, cur.Version(), base.Version()+1)
		}
	}
}
