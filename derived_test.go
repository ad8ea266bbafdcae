package xtq

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"xtq/internal/tree"
)

// noteBytes is what one noted answer is charged: the answers a chain
// without an image holds.
const noteBytes = 64

// readDoc reads name as xtqd does: two transform queries through EvalTo
// and one query composed with view, the composed read noting itself
// first, each run twice.
func readDoc(ctx context.Context, st *Store, name string, ps [2]*Prepared, pv *PreparedView) error {
	snap, err := st.Snapshot(name)
	if err != nil {
		return err
	}
	for run := 0; run < 2; run++ {
		for _, p := range ps {
			if err := p.EvalTo(ctx, snap, io.Discard); err != nil {
				return err
			}
		}
		snap.Index().Read(tree.NeedMasks)
		if _, _, err := pv.Eval(ctx, snap); err != nil {
			return err
		}
	}
	return nil
}

// derivedBound returns the derived bytes the heads of names may hold, by
// kind: the image, its serialization; the masks, 8 B per node; the
// answers, the serialization plus one note per chain.
func derivedBound(t *testing.T, st *Store, names []string) map[string]int64 {
	t.Helper()
	bound := map[string]int64{}
	for _, name := range names {
		snap, err := st.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := snap.WriteXML(&b); err != nil {
			t.Fatal(err)
		}
		bound["image"] += int64(b.Len())
		bound["masks"] += 8 * int64(snap.NumNodes())
		bound["answers"] += int64(b.Len()) + noteBytes
	}
	return bound
}

// TestDerivedBytesBoundedAndReleased: a store of many small documents,
// each read by two transform queries and one composed query twice,
// holds derived bytes of every kind, each within its bound — in all,
// twice the heads' serialization plus 8 B per node plus one note per
// chain. Once every document is removed the store holds what it held
// at the start, with no collection in between.
func TestDerivedBytesBoundedAndReleased(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	start := st.DerivedBytes()
	v, err := st.RegisterView("v", `transform copy $a := doc("d") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Prepare(`for $x in //part return $x`)
	if err != nil {
		t.Fatal(err)
	}
	ps := [2]*Prepared{prepare(t, st, deletePrice), prepare(t, st, renamePname)}
	var names []string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("doc%d", i)
		putString(t, st, name, manyParts(20+i), false)
		if err := readDoc(ctx, st, name, ps, pv); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	held, bound := st.DerivedBytes(), derivedBound(t, st, names)
	var total, limit int64
	for _, kind := range tree.DerivedKinds {
		if held[kind]-start[kind] <= 0 || held[kind]-start[kind] > bound[kind] {
			t.Errorf("%s: %d bytes held, want (0, %d]", kind, held[kind]-start[kind], bound[kind])
		}
		total += held[kind] - start[kind]
		limit += bound[kind]
	}
	t.Logf("64 documents: %v held, bound %v (%d of %d bytes)", held, bound, total, limit)
	for _, name := range names {
		if _, err := st.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.DerivedBytes(); fmt.Sprint(got) != fmt.Sprint(start) {
		t.Fatalf("after removing every document the store holds %v, at the start %v", got, start)
	}
}

// TestConcurrentDerivedAccount: readers over their own documents build
// and publish images, label masks and recordings while another
// goroutine reads the store's account over and over; every reading
// stays within the bound, and the last one holds every kind.
func TestConcurrentDerivedAccount(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	v, err := st.RegisterView("v", `transform copy $a := doc("d") modify do delete $a//price return $a`)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := v.Prepare(`for $x in //part return $x`)
	if err != nil {
		t.Fatal(err)
	}
	ps := [2]*Prepared{prepare(t, st, deletePrice), prepare(t, st, renamePname)}
	const readers, docs = 4, 8
	var names []string
	for i := 0; i < readers*docs; i++ {
		name := fmt.Sprintf("doc%d", i)
		putString(t, st, name, manyParts(30+i), false)
		names = append(names, name)
	}
	bound := derivedBound(t, st, names)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, name := range names[g*docs : (g+1)*docs] {
				if err := readDoc(ctx, st, name, ps, pv); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			for kind, n := range st.DerivedBytes() {
				if n < 0 || n > bound[kind] {
					errs <- fmt.Errorf("%s: %d bytes held, bound %d", kind, n, bound[kind])
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	<-scraped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for kind, n := range st.DerivedBytes() {
		if n <= 0 {
			t.Fatalf("%s: %d bytes held after every document was read", kind, n)
		}
	}
}
