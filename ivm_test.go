package xtq_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"xtq"
	"xtq/internal/tree"
	"xtq/internal/xmark"
)

// facadeUpdates is the pool the property test draws from: a mix of
// updates that are provably absorbed by the views below (inserts into
// view-deleted regions), updates that force delta maintenance, updates
// that flip the qualified views' qualifiers (item locations, bidder
// increases) and updates that select nothing (no-op commits).
var facadeUpdates = []string{
	`transform copy $a := doc("auc") modify do insert <interest category="c"/> into $a//profile return $a`,
	`transform copy $a := doc("auc") modify do insert <note>n</note> into $a//annotation return $a`,
	`transform copy $a := doc("auc") modify do insert <bidder><increase>3</increase></bidder> into $a//open_auction return $a`,
	`transform copy $a := doc("auc") modify do delete $a//reserve return $a`,
	`transform copy $a := doc("auc") modify do replace $a//happiness with <happiness>5</happiness> return $a`,
	`transform copy $a := doc("auc") modify do delete $a//listitem return $a`,
	`transform copy $a := doc("auc") modify do rename $a/site/regions as zones return $a`,
	`transform copy $a := doc("auc") modify do insert <mark/> into $a/site/regions return $a`,
	`transform copy $a := doc("auc") modify do replace $a/site/regions/europe/item/location with <location>United States</location> return $a`,
	`transform copy $a := doc("auc") modify do insert <increase>50</increase> into $a//open_auction/bidder return $a`,
	`transform copy $a := doc("auc") modify do delete $a//bidder/increase return $a`,
}

// TestQuickFacadeViewsMatchOracle drives random XMark update sequences
// against a store with a lazy two-layer view, an eager three-layer
// materialized view, a lazy view whose layers insert and replace
// constants, an eager view qualified on its first layer and a lazy one
// qualified on its second, whose qualifier reads the first layer's
// output, and checks after every commit — and from eight concurrent
// racing readers — that what the maintained cache serves is
// byte-identical to a from-scratch recomposition of the same snapshot.
// Afterwards no view links a node of a layer's Query.Update.Elem: a
// view links each layer's frozen constant (core.Compiled.Elem), so the
// unstamped nodes a materialization is stamped with in place are its own.
func TestQuickFacadeViewsMatchOracle(t *testing.T) {
	ctx := context.Background()
	var totalDelta, totalUnaffected int
	qualifiedDelta := map[string]int{}

	for seed := int64(1); seed <= 4; seed++ {
		st := xtq.NewStore(nil)
		doc, err := xmark.Generate(xmark.Config{Factor: 0.002, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Put(ctx, "auc", doc); err != nil {
			t.Fatal(err)
		}

		lazy, err := st.RegisterView("public",
			`transform copy $a := doc("x") modify do delete $a//profile return $a`,
			`transform copy $a := doc("x") modify do delete $a//reserve return $a`,
		)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := st.RegisterMaterializedView("feed",
			`transform copy $a := doc("x") modify do delete $a//annotation return $a`,
			`transform copy $a := doc("x") modify do delete $a//increase return $a`,
			`transform copy $a := doc("x") modify do rename $a/site as auctions return $a`,
		)
		if err != nil {
			t.Fatal(err)
		}
		constants, err := st.RegisterView("flagged",
			`transform copy $a := doc("x") modify do insert <flag><seen/></flag> into $a//person return $a`,
			`transform copy $a := doc("x") modify do replace $a//flag/seen with <checked>y</checked> return $a`,
			`transform copy $a := doc("x") modify do replace $a//happiness with <mood>fine</mood> return $a`,
		)
		if err != nil {
			t.Fatal(err)
		}
		located, err := st.RegisterMaterializedView("located",
			`transform copy $a := doc("x") modify do delete $a/site/regions//item[location = "United States"] return $a`,
			`transform copy $a := doc("x") modify do rename $a/site/people/person as member return $a`,
		)
		if err != nil {
			t.Fatal(err)
		}
		bids, err := st.RegisterView("bids",
			`transform copy $a := doc("x") modify do rename $a//open_auction as auction return $a`,
			`transform copy $a := doc("x") modify do delete $a//auction/bidder[increase > 10] return $a`,
		)
		if err != nil {
			t.Fatal(err)
		}
		oracles := map[string]*xtq.View{"public": lazy, "feed": eager, "flagged": constants,
			"located": located, "bids": bids}

		// check compares the maintained read against the oracle on snap.
		check := func(snap *xtq.Snapshot) error {
			for name, v := range oracles {
				got, _, err := st.ViewAt(ctx, snap, name)
				if err != nil {
					return err
				}
				want, err := v.Materialize(ctx, snap)
				if err != nil {
					return err
				}
				if got.String() != want.String() {
					t.Errorf("seed %d: view %s diverges from oracle at version %d",
						seed, name, snap.Version())
				}
			}
			return nil
		}

		// Eight readers race the writer, each validating whatever
		// snapshot is current when it looks.
		var stop atomic.Bool
		var readerErr atomic.Value
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					snap, err := st.Snapshot("auc")
					if err != nil {
						readerErr.Store(err)
						return
					}
					if err := check(snap); err != nil {
						readerErr.Store(err)
						return
					}
				}
			}()
		}

		rng := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 8; i++ {
			upd := facadeUpdates[rng.Intn(len(facadeUpdates))]
			snap, _, err := st.Apply(ctx, "auc", upd)
			if err != nil {
				t.Fatalf("seed %d update %d: %v", seed, i, err)
			}
			if err := check(snap); err != nil {
				t.Fatalf("seed %d version %d: %v", seed, snap.Version(), err)
			}
		}
		stop.Store(true)
		wg.Wait()
		if err := readerErr.Load(); err != nil {
			t.Fatalf("seed %d reader: %v", seed, err)
		}

		// Older versions stay readable and correct (time travel).
		if snap, err := st.SnapshotAt(ctx, "auc", 3); err == nil {
			if err := check(snap); err != nil {
				t.Fatalf("seed %d time travel: %v", seed, err)
			}
		}

		snap, err := st.Snapshot("auc")
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range oracles {
			constant := map[*xtq.Node]bool{}
			for i := 0; i < v.Layers(); i++ {
				if elem := v.Layer(i).Query().Update.Elem; elem != nil {
					tree.Walk(elem, func(n *xtq.Node, _ int) bool { constant[n] = true; return true })
				}
			}
			got, _, err := st.ViewAt(ctx, snap, name)
			if err != nil {
				t.Fatal(err)
			}
			tree.Walk(got, func(n *xtq.Node, _ int) bool {
				if constant[n] {
					t.Fatalf("seed %d: view %s links a node of its Query.Update.Elem", seed, name)
				}
				return true
			})
		}
		if _, stats, err := st.ViewAt(ctx, snap, "feed"); err == nil {
			totalDelta += stats.DeltaCommits
			totalUnaffected += stats.UnaffectedCommits
		}
		if _, stats, err := st.ViewAt(ctx, snap, "public"); err == nil {
			totalDelta += stats.DeltaCommits
			totalUnaffected += stats.UnaffectedCommits
		}
		for _, name := range []string{"located", "bids"} {
			if _, stats, err := st.ViewAt(ctx, snap, name); err == nil {
				qualifiedDelta[name] += stats.DeltaCommits
			}
		}
	}

	// The pool must have exercised both fast paths somewhere across the
	// seeds, or the test is not probing what it claims to.
	if totalDelta == 0 {
		t.Error("no commit was delta-maintained")
	}
	if totalUnaffected == 0 {
		t.Error("no commit was proved unaffected")
	}
	for _, name := range []string{"located", "bids"} {
		if qualifiedDelta[name] == 0 {
			t.Errorf("no commit to the qualified view %s was delta-maintained", name)
		}
	}
}
