package core_test

import (
	"context"
	"testing"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/xmark"
)

// BenchmarkAblationNoPrune quantifies the subtree-pruning design choice:
// topDown with and without the empty-state-set shortcut. It is an
// external test so that it can import the query workload, which imports
// core.
func BenchmarkAblationNoPrune(b *testing.B) {
	c, err := queries.Compile(2) // highly selective: pruning matters most
	if err != nil {
		b.Fatal(err)
	}
	doc, err := xmark.Generate(xmark.Config{Factor: 0.02, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pruned", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.EvalTopDown(context.Background(), c, doc, core.DirectChecker{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noprune", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := core.EvalTopDownNoPrune(context.Background(), c, doc, core.DirectChecker{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
