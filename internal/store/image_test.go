package store

import (
	"context"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"xtq/internal/tree"
)

// TestSnapshotImageCountsBuildsAndServesOpen: the first read of a chain
// builds no image and the second does; the store accounts that one
// image; later versions of the chain share the image; Open serves the
// covered root straight from the image and everything else through it,
// with the same bytes as WriteXML.
func TestSnapshotImageCountsBuildsAndServesOpen(t *testing.T) {
	ctx := context.Background()
	st := New()
	snap, _, err := st.Put("d", parse(t, partsXML), true)
	if err != nil {
		t.Fatal(err)
	}
	read := func(s *Snapshot) string {
		r, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := read(snap); got != partsXML {
		t.Fatalf("Open before any image = %q", got)
	}
	if snap.Index().LoadImage() != nil {
		t.Fatal("Open or Put built an image")
	}

	held := func() int64 {
		var a tree.Account
		st.Account(&a)
		return a.Bytes[tree.DerivedImage]
	}
	if snap.Index().Read(tree.NeedImage) != nil || snap.Index().LoadImage() != nil || held() != 0 {
		t.Fatal("the first read of the chain built an image")
	}
	img := snap.Index().Read(tree.NeedImage)
	if img == nil || snap.Index().Read(tree.NeedImage) != img || held() != int64(len(partsXML)) {
		t.Fatalf("the store holds %d image bytes: want one image of %d bytes", held(), len(partsXML))
	}
	if got := read(snap); got != partsXML {
		t.Fatalf("Open through the image = %q", got)
	}

	next, _, err := st.Apply(ctx, "d", compile(t, `transform copy $a := doc("d") modify do rename $a/db/part[pname = "mouse"] as spare return $a`), "")
	if err != nil {
		t.Fatal(err)
	}
	if next.Index().Read(tree.NeedImage) != img || held() != int64(len(partsXML)) {
		t.Fatal("a later version of the chain built a second image")
	}
	var want strings.Builder
	if err := next.Root().WriteXML(&want); err != nil {
		t.Fatal(err)
	}
	if got := read(next); got != want.String() || !strings.Contains(got, "<spare>") {
		t.Fatalf("Open of the next version = %q, want %q", got, want.String())
	}
}

// TestImageRetiredWithItsChain: a compaction starts a new chain without
// an image, and once the history ring has rotated past the old chain, its
// image is garbage.
func TestImageRetiredWithItsChain(t *testing.T) {
	ctx := context.Background()
	const depth = 2
	st := NewWithHistory(depth)
	defer runtime.KeepAlive(st)
	doc := "<db><big>" + strings.Repeat("<x>v</x>", 2500) + "</big><tag/></db>"
	snap, _, err := st.Put("d", parse(t, doc), true)
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	snap.Index().Read(tree.NeedImage)
	img := snap.Index().Read(tree.NeedImage)
	runtime.SetFinalizer(img, func(any) { close(collected) })
	img = nil

	// Deleting the bulk leaves the ordinal space mostly dead: the commit
	// compacts into a new chain.
	next, _, err := st.Apply(ctx, "d", compile(t, `transform copy $a := doc("d") modify do delete $a/db/big return $a`), "")
	if err != nil {
		t.Fatal(err)
	}
	if next.Index().LoadImage() != nil {
		t.Fatal("the compacted chain inherited the old chain's image")
	}
	for i := 0; i < depth; i++ {
		if _, _, err := st.Apply(ctx, "d", compile(t, `transform copy $a := doc("d") modify do insert <n/> into $a/db/tag return $a`), ""); err != nil {
			t.Fatal(err)
		}
	}
	snap, next = nil, nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the old chain's image is still reachable after the ring rotated past it")
}
