package tree

import (
	"math/rand"
	"testing"
)

// statsAgree compares two statistics records field by field, ignoring
// the fingerprint generation and normalizing PerSym lengths (a commit
// that interns an attribute name grows the symbol table without
// touching element counts, so trailing zeros are equal-by-meaning).
func statsAgree(t *testing.T, tag string, got, want *Stats) {
	t.Helper()
	if got.Nodes != want.Nodes || got.Elems != want.Elems ||
		got.Texts != want.Texts || got.Attrs != want.Attrs ||
		got.TextBytes != want.TextBytes {
		t.Fatalf("%s: totals diverge: got %+v, want %+v", tag, got, want)
	}
	if got.Depth != want.Depth {
		t.Fatalf("%s: depth histogram diverges:\n got %v\nwant %v", tag, got.Depth, want.Depth)
	}
	n := len(got.PerSym)
	if len(want.PerSym) > n {
		n = len(want.PerSym)
	}
	at := func(s []int32, i int) int32 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if at(got.PerSym, i) != at(want.PerSym, i) {
			t.Fatalf("%s: PerSym[%d] = %d, want %d", tag, i, at(got.PerSym, i), at(want.PerSym, i))
		}
	}
}

func TestFreezeStats(t *testing.T) {
	root, ix, _ := Freeze(buildTestDoc(), nil)
	s := ix.Stats()
	if s == nil {
		t.Fatal("sealed snapshot carries no statistics")
	}
	if s.Nodes != root.Size() {
		t.Fatalf("Nodes = %d, want %d", s.Nodes, root.Size())
	}
	statsAgree(t, "freeze", s, RecountStats(ix))
	if int(s.MaxDepth())+1 != root.Depth() {
		t.Fatalf("MaxDepth = %d, want %d", s.MaxDepth(), root.Depth()-1)
	}
	// Per-label counts resolve through the symbol table.
	if got := s.Count(ix.Syms.Lookup("part")); got != 2 {
		t.Fatalf("Count(part) = %d, want 2", got)
	}
	if got := s.Count(ix.Syms.Lookup("nosuchlabel")); got != 0 {
		t.Fatalf("Count(nosuchlabel) = %d, want 0", got)
	}
	// The record is cached: same pointer, same fingerprint.
	if ix.Stats() != s {
		t.Fatal("Stats not cached")
	}
}

func TestStatsLazyOnPlainIndex(t *testing.T) {
	doc := buildTestDoc()
	ix := EnsureIndex(doc)
	s := ix.Stats()
	statsAgree(t, "plain", s, RecountStats(ix))
	if ix.Stats() != s {
		t.Fatal("Stats not cached on plain index")
	}
}

// TestPathCopyStatsOracle drives a long random update sequence through
// PathCopy and checks after every commit that the O(delta) incremental
// statistics maintenance agrees with a from-scratch recount, and that
// the fingerprint changed.
func TestPathCopyStatsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doc := Generate(rng, DefaultGenOptions())
	root, ix, _ := Freeze(doc, nil)
	statsAgree(t, "initial", ix.Stats(), RecountStats(ix))

	commits := 0
	for i := 0; i < 80; i++ {
		out, hit := randomEdit(t, rng, root)
		if !hit {
			continue
		}
		prevGen := ix.Stats().Gen
		var newRoot *Node
		newRoot, ix, _ = PathCopy(out, ix)
		commits++
		s := ix.Stats()
		if s == nil {
			t.Fatalf("commit %d: no statistics after PathCopy", i)
		}
		statsAgree(t, "commit", s, RecountStats(ix))
		if s.Nodes != newRoot.Size() {
			t.Fatalf("commit %d: Nodes %d != Size %d", i, s.Nodes, newRoot.Size())
		}
		if s.Gen == prevGen {
			t.Fatalf("commit %d: fingerprint did not change", i)
		}
		root = newRoot
	}
	if commits < 20 {
		t.Fatalf("only %d commits exercised", commits)
	}
}
