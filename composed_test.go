package xtq

import (
	"context"
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
// view_user_query user queries on XMark 0.05. The plain walk below dead
// regions counts exactly what the general walk counts. Three rows are
// lower than when qualifier tests built Select frontiers: germany_name
// (1417) and quantity_location (26823) stop enumerating an item's
// children at the first location or quantity that passes, and
// member_age (9697) hands each profile/age test to xpath at the profile
// no layer can touch, where it is not counted — like every qualifier
// evaluated at a dead node.
func TestComposedUserQueriesNodesVisited(t *testing.T) {
	want := map[string]int{
		"member_id":         1284,
		"member_age":        6249,
		"U6":                8982,
		"auction_text":      2795,
		"U8":                2924,
		"U9":                26053,
		"U10":               60632,
		"member_profile":    1284,
		"germany_name":      1309,
		"auction_id":        605,
		"closed_annotation": 692,
		"quantity_location": 26273,
	}
	doc := benchDoc(t, 0.05)
	for i, pv := range prepareSecurityView(t) {
		name := securityViewQueries[i].name
		got, stats, err := pv.Eval(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if stats.NodesVisited != want[name] {
			t.Errorf("%s: NodesVisited = %d, want %d", name, stats.NodesVisited, want[name])
		}
		oracle, err := pv.EvalSequential(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != oracle.String() {
			t.Errorf("%s: Eval disagrees with EvalSequential", name)
		}
	}
}
