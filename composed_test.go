package xtq

import (
	"context"
	"fmt"
	"testing"

	"xtq/internal/queries"
)

// securityView is the two-layer view of the wire benchmark's
// view_user_query workload: a security view hiding the items located in
// the United States (delete U9) under a renaming of person to member
// (rename U1). Its first layer's '//' keeps the whole regions subtree
// live.
var securityView = []string{
	`transform copy $a := doc("x") modify do delete $a` + queries.U[9] + ` return $a`,
	`transform copy $a := doc("x") modify do rename $a` + queries.U[1] + ` as member return $a`,
}

// securityViewQueries are view_user_query's twelve user queries, written
// against the view's vocabulary, each with a short name for benchmark
// and table rows.
var securityViewQueries = []struct{ name, path string }{
	{"member_id", `/site/people/member[@id = "person10"]`},
	{"member_age", `/site/people/member[profile/age > 65]`},
	{"U6", queries.U[6]},
	{"auction_text", `/site/open_auctions/open_auction[bidder/increase > 20]/annotation[happiness < 4]/description//text`},
	{"U8", queries.U[8]},
	{"U9", queries.U[9]},
	{"U10", queries.U[10]},
	{"member_profile", `/site/people/member[@id = "person3"]/profile`},
	{"germany_name", `/site/regions/europe/item[location = "Germany"]/name`},
	{"auction_id", `/site/open_auctions/open_auction[@id = "open_auction7"]`},
	{"closed_annotation", `/site/closed_auctions/closed_auction[price > 480]/annotation`},
	{"quantity_location", `/site/regions//item[quantity > 9]/location`},
}

// prepareSecurityView prepares every user query of securityViewQueries
// over the security view, in table order.
func prepareSecurityView(tb testing.TB) []*PreparedView {
	tb.Helper()
	v, err := NewEngine().View(securityView...)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*PreparedView, len(securityViewQueries))
	for i, q := range securityViewQueries {
		if out[i], err = v.Prepare("for $x in " + q.path + " return $x"); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestComposedUserQueriesNodesVisited pins ViewStats.NodesVisited for the
// view_user_query user queries on XMark 0.05, over a plain tree and over
// a store snapshot whose chain has its subtree label masks built. The
// plain walk below dead regions counts exactly what the general walk
// counts. Three unmasked rows are lower than when qualifier tests built
// Select frontiers: germany_name (1417) and quantity_location (26823)
// stop enumerating an item's children at the first location or quantity
// that passes, and member_age (9697) hands each profile/age test to
// xpath at the profile no layer can touch, where it is not counted —
// like every qualifier evaluated at a dead node. With the masks, a layer
// dies below a child whose subtree holds no label it could still select,
// and a '//l' walk skips every subtree without an l: U9, U10,
// quantity_location and germany_name no longer visit the whole of
// /site/regions (or /site), and auction_text's description//text skips
// the descriptions' text-free parts.
func TestComposedUserQueriesNodesVisited(t *testing.T) {
	want := map[string][2]int{ // {plain tree, masked chain}
		"member_id":         {1284, 1284},
		"member_age":        {6249, 6249},
		"U6":                {8982, 8982},
		"auction_text":      {2795, 2716},
		"U8":                {2924, 2924},
		"U9":                {26053, 1098},
		"U10":               {60632, 6329},
		"member_profile":    {1284, 1284},
		"germany_name":      {1309, 318},
		"auction_id":        {605, 605},
		"closed_annotation": {692, 692},
		"quantity_location": {26273, 1868},
	}
	ctx := context.Background()
	doc := benchDoc(t, 0.05)
	snap, _, err := NewStore(nil).Put(ctx, "d", doc)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index().HasMasks() || !masksOf(snap.Index()) {
		t.Fatal("the snapshot's chain had masks before they were built")
	}
	for i, pv := range prepareSecurityView(t) {
		name := securityViewQueries[i].name
		oracle, err := pv.EvalSequential(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		for j, src := range []Source{doc, snap} {
			got, stats, err := pv.Eval(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if stats.NodesVisited != want[name][j] {
				t.Errorf("%s (masks: %v): NodesVisited = %d, want %d", name, j == 1, stats.NodesVisited, want[name][j])
			}
			if got.String() != oracle.String() {
				t.Errorf("%s (masks: %v): Eval disagrees with EvalSequential", name, j == 1)
			}
		}
	}
}

// TestComposedMaskPruningAfterCommits pins how the label masks' pruning
// holds up when a document is committed to after its chain's masks were
// built. The masks are built once per chain and never refreshed: every
// spine node a commit path-copies is past the mask table and answers all
// ones, so each commit un-prunes the children of the nodes on its path,
// not the document. Note inserts into persons (view_user_query's commit
// probe) cost U10, whose /site//open_auctions then steps into every
// person below the unmasked people node at the first commit, and into
// one person's children per commit after it; inserts into regions items
// cost U9, germany_name and quantity_location the children of the nodes
// on each path. Every row stays far
// below the unmasked walk (U9 26 053, U10 60 632, quantity_location
// 26 273, germany_name 1 309). Compaction starts a new chain, whose
// masks are built afresh. Every result matches EvalSequential.
func TestComposedMaskPruningAfterCommits(t *testing.T) {
	ctx := context.Background()
	st := NewStore(nil)
	snap, _, err := st.Put(ctx, "d", benchDoc(t, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index().HasMasks() || !masksOf(snap.Index()) {
		t.Fatal("the snapshot's chain had masks before they were built")
	}
	watched := []string{"U9", "U10", "germany_name", "quantity_location"}
	want := []struct {
		commits string // where the commits so far went
		visits  []int  // NodesVisited of the watched queries, in order
	}{
		{"none", []int{1098, 6329, 318, 1868}},
		{"1 person", []int{1098, 7608, 318, 1868}},
		{"64 persons", []int{1098, 7901, 318, 1868}},
		{"64 persons, 64 items", []int{2010, 9450, 382, 2755}},
	}
	insert := func(target string) {
		t.Helper()
		q := `transform copy $a := doc("d") modify do insert <bench_note/> into $a` + target + ` return $a`
		if snap, _, err = st.Apply(ctx, "d", q); err != nil {
			t.Fatal(err)
		}
	}
	pvs := prepareSecurityView(t)
	for step, w := range want {
		switch step {
		case 1:
			insert(`/site/people/person[@id = "person0"]`)
		case 2:
			for n := 1; n < 64; n++ {
				insert(fmt.Sprintf(`/site/people/person[@id = "person%d"]`, n*37%255))
			}
		case 3:
			for n := 0; n < 64; n++ {
				insert(fmt.Sprintf(`/site/regions//item[@id = "item%d"]`, n*37%1000))
			}
		}
		for i, name := range watched {
			pv := pvs[securityQueryIndex(t, name)]
			got, stats, err := pv.Eval(ctx, snap)
			if err != nil {
				t.Fatal(err)
			}
			if stats.NodesVisited != w.visits[i] {
				t.Errorf("after commits to %s: %s NodesVisited = %d, want %d", w.commits, name, stats.NodesVisited, w.visits[i])
			}
			oracle, err := pv.EvalSequential(ctx, snap)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != oracle.String() {
				t.Errorf("after commits to %s: %s disagrees with EvalSequential", w.commits, name)
			}
		}
	}
}

// securityQueryIndex returns the position of the named user query in
// securityViewQueries.
func securityQueryIndex(tb testing.TB, name string) int {
	tb.Helper()
	for i, q := range securityViewQueries {
		if q.name == name {
			return i
		}
	}
	tb.Fatalf("no user query %q", name)
	return -1
}
