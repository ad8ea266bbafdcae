package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/xmark"
)

// opKind is the kind of one HTTP request the benchmark sends.
type opKind int

const (
	opQuery     opKind = iota // POST /docs/{d}/query, body = transform query
	opViewQuery               // GET /docs/{d}/views/v?q=<user query>
	opViewRead                // GET /docs/{d}/views/v (maintained materialization)
	opGetDoc                  // GET /docs/{d}
	opUpdate                  // POST /docs/{d}/update, body = transform query
)

// route is xtqd's mux pattern for the kind: the label of its request
// metrics.
func (k opKind) route() string {
	return [...]string{
		"POST /docs/{name}/query",
		"GET /docs/{name}/views/{view}",
		"GET /docs/{name}/views/{view}",
		"GET /docs/{name}",
		"POST /docs/{name}/update",
	}[k]
}

func (k opKind) String() string {
	return [...]string{"query", "view_query", "view_read", "get_doc", "update"}[k]
}

// request is one generated request. Everything the send path needs is
// rendered when the request is generated, before any timing starts.
type request struct {
	kind opKind
	doc  int    // index into run.docs
	text string // transform query, user query or update text
	path string // URL path and query, rendered
	// after applies to updates: the update that, applied to the base
	// document, reproduces the document's state once this update has
	// committed ("" = the base document itself). It lets the oracle
	// rebuild the state a read saw from the version the read reports.
	after string
}

// docInput is one generated document.
type docInput struct {
	name string
	xml  []byte
}

// source yields a workload's next request.
type source func() *request

// phase is one part of a measurement window. Either each of actors
// drives one closed-loop client (the next request goes out only after
// the previous one completed, over the client's own connection), or
// (rate > 0) open issues Poisson arrivals at the fixed rate over conns
// connections.
type phase struct {
	actors []source
	// count, when set, ends the phase after that many requests per
	// actor instead of after the window's duration.
	count int
	rate  float64
	conns int
	open  func() *request
}

// run is one workload instantiated from a seed: its generated inputs,
// the xtqd configuration they need and the load plan of a window.
type run struct {
	name    string
	seed    int64
	durable bool
	docs    []docInput
	view    []string // layers of the one registered view "v", innermost first
	phases  []phase  // what runs, in order, inside one measurement window
	// probe, when set, runs in windows of its own after the main ones:
	// the commit probe of the workloads whose main windows only read.
	probe *phase
	// primary is the read kind the workload is about: the layer table
	// and the handler/transport split are reported for it.
	primary opKind
	// firstRead completes set-up: one verified read that forces lazy
	// state (the view's first materialization) before anything is timed.
	firstRead *request
}

const viewName = "v"

// workloadInfo names a workload and records why it exists; the same
// text is in BENCHMARK.json and the README.
type workloadInfo struct {
	name, why string
	build     func(seed int64) (*run, error)
}

var workloads = []workloadInfo{
	{"query_full_doc", "paper's headline transform query: every response is the whole 2 MB updated document, so serialise+write should dominate and compile is a cache hit", buildQueryFullDoc},
	{"view_user_query", "user queries composed with a 2-layer view: small results, so composition plan and single-pass eval dominate and serialisation is negligible", buildViewUserQuery},
	{"update_commit", "durable single writer (path-copy, WAL fsync, IVM hook) beside a reader of the maintained view: a read-side gain that taxes commits shows", buildUpdateCommit},
	{"mixed_small_docs", "open-loop mix over 512 small durable documents with >128 distinct query texts: handler, caches, parse/compile/plan and store lookup dominate", buildMixedSmallDocs},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// Document sizes. bigFactor gives one ~2.1 MB, ~92 k node document;
// smallFactor gives ~40 KB documents with 25 persons each.
const (
	bigFactor   = 0.05
	smallFactor = 0.001
	smallDocs   = 512
)

// mixedRate is the open-loop arrival rate of mixed_small_docs in
// requests per second: a quarter of the closed-loop saturation of the
// same mix measured on the seed commit with `-calibrate` (see README),
// frozen so that later commits are offered the same load. At half of
// saturation one request in ten found both connections busy, so p90 sat
// on the edge between "served at once" and "queued behind a stall" and
// did not repeat; at a quarter it is one in thirty.
const mixedRate = 550

func genDoc(name string, factor float64, seed int64) (docInput, error) {
	var b bytes.Buffer
	if _, err := xmark.Write(xmark.Config{Factor: factor, Seed: seed}, &b); err != nil {
		return docInput{}, fmt.Errorf("generating %s: %w", name, err)
	}
	return docInput{name: name, xml: b.Bytes()}, nil
}

func docPath(name string) string { return "/docs/" + name }

func queryReq(doc int, name, text string) *request {
	return &request{kind: opQuery, doc: doc, text: text, path: docPath(name) + "/query"}
}

func viewQueryReq(doc int, name, userQuery string) *request {
	return &request{kind: opViewQuery, doc: doc, text: userQuery,
		path: docPath(name) + "/views/" + viewName + "?q=" + url.QueryEscape(userQuery)}
}

func viewReadReq(doc int, name string) *request {
	return &request{kind: opViewRead, doc: doc, path: docPath(name) + "/views/" + viewName}
}

func getDocReq(doc int, name string) *request {
	return &request{kind: opGetDoc, doc: doc, path: docPath(name)}
}

func updateReq(doc int, name, text, after string) *request {
	return &request{kind: opUpdate, doc: doc, text: text, after: after, path: docPath(name) + "/update"}
}

func transform(doc, update string) string {
	return fmt.Sprintf(`transform copy $a := doc("%s") modify do %s return $a`, doc, update)
}

// transformTexts renders the 40 transform queries U1–U10 × {insert,
// delete, rename, replace} of Fig. 11 against document name.
func transformTexts(name string) []string {
	var out []string
	for i := 1; i <= 10; i++ {
		for _, op := range []core.Op{core.Insert, core.Delete, core.Rename, core.Replace} {
			q := queries.TransformOp(i, op)
			q.Doc = name
			out = append(out, q.String())
		}
	}
	return out
}

// cycle returns a source that walks table forever from offset start.
func cycle(table []*request, start int) source {
	i := start
	return func() *request {
		r := table[i%len(table)]
		i++
		return r
	}
}

// notePairs returns the single writer's source over one big document:
// insert <bench_note/> into person K, then delete it again, with K
// drawn from rng per pair. The document is back to its base state after
// every second commit, so its size is stationary.
func notePairs(rng *rand.Rand, doc int, name string, people int) source {
	var pending *request
	return func() *request {
		if pending != nil {
			r := pending
			pending = nil
			return r
		}
		person := fmt.Sprintf(`$a/site/people/person[@id = "person%d"]`, rng.Intn(people))
		ins := transform(name, "insert <bench_note/> into "+person)
		pending = updateReq(doc, name, transform(name, "delete "+person+"/bench_note"), "")
		return updateReq(doc, name, ins, ins)
	}
}

// viewDeleteUSRenamePerson is the 2-layer view of view_user_query and
// mixed_small_docs: a security view hiding US items (delete U9) under a
// renaming of person to member (rename U1).
func viewDeleteUSRenamePerson(name string) []string {
	return []string{
		transform(name, "delete $a"+queries.U[9]),
		transform(name, "rename $a"+queries.U[1]+" as member"),
	}
}

// userQueries are the 12 user queries of view_user_query, written
// against the view's vocabulary (persons are members there): the
// selective U2, U3 and U7 (with narrower qualifiers), U6, U8–U10 and
// five more of the same shapes. Each result is at most 5 % of the document; U9 selects
// exactly what the view's first layer deletes, so its result is empty.
var userQueries = []string{
	`/site/people/member[@id = "person10"]`,
	`/site/people/member[profile/age > 65]`,
	queries.U[6],
	`/site/open_auctions/open_auction[bidder/increase > 20]/annotation[happiness < 4]/description//text`,
	queries.U[8],
	queries.U[9],
	queries.U[10],
	`/site/people/member[@id = "person3"]/profile`,
	`/site/regions/europe/item[location = "Germany"]/name`,
	`/site/open_auctions/open_auction[@id = "open_auction7"]`,
	`/site/closed_auctions/closed_auction[price > 480]/annotation`,
	`/site/regions//item[quantity > 9]/location`,
}

func userQueryTexts() []string {
	out := make([]string, len(userQueries))
	for i, p := range userQueries {
		out[i] = "for $x in " + p + " return $x"
	}
	return out
}

// The read-only workloads carry a commit probe: one client committing
// insert/delete pairs with no reads running, so every workload reports
// commit latency for its store configuration and its document. The
// probe is sized in commits, not seconds: commit cost at the seed
// commit grows with the number of versions committed so far, and a
// fixed count measures the same stretch of that curve on every run.
// probeShare is the part of the measured time taken from the read
// windows to make room for it.
const (
	probeShare            = 0.15
	probeCommitsPerSecond = 200 // × measured seconds = commits in the probe's windows
)

func bigDocRun(name string, seed int64) (*run, *rand.Rand, error) {
	doc, err := genDoc("x", bigFactor, seed)
	if err != nil {
		return nil, nil, err
	}
	return &run{name: name, seed: seed, docs: []docInput{doc}}, rand.New(rand.NewSource(seed)), nil
}

func bigPeople() int {
	people, _, _, _ := xmark.Config{Factor: bigFactor}.Counts()
	return people
}

func buildQueryFullDoc(seed int64) (*run, error) {
	r, rng, err := bigDocRun("query_full_doc", seed)
	if err != nil {
		return nil, err
	}
	var table []*request
	for _, t := range transformTexts("x") {
		table = append(table, queryReq(0, "x", t))
	}
	rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
	r.primary = opQuery
	r.firstRead = table[0]
	r.phases = []phase{{actors: []source{cycle(table, 0), cycle(table, len(table)/2)}}}
	r.probe = &phase{actors: []source{notePairs(rng, 0, "x", bigPeople())}}
	return r, nil
}

func buildViewUserQuery(seed int64) (*run, error) {
	r, rng, err := bigDocRun("view_user_query", seed)
	if err != nil {
		return nil, err
	}
	r.view = viewDeleteUSRenamePerson("x")
	var table []*request
	for _, t := range userQueryTexts() {
		table = append(table, viewQueryReq(0, "x", t))
	}
	rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
	r.primary = opViewQuery
	r.firstRead = table[0]
	r.phases = []phase{{actors: []source{cycle(table, 0), cycle(table, len(table)/2)}}}
	r.probe = &phase{actors: []source{notePairs(rng, 0, "x", bigPeople())}}
	return r, nil
}

func buildUpdateCommit(seed int64) (*run, error) {
	r, rng, err := bigDocRun("update_commit", seed)
	if err != nil {
		return nil, err
	}
	r.durable = true
	// Qualifier-free layers, so the view is delta-maintained by the
	// commit hook; the rename makes every note insert touch the view.
	r.view = []string{
		transform("x", "delete $a"+queries.U[5]),
		transform("x", "rename $a"+queries.U[1]+" as member"),
	}
	read := viewReadReq(0, "x")
	r.primary = opViewRead
	r.firstRead = read
	r.phases = []phase{{actors: []source{
		notePairs(rng, 0, "x", bigPeople()),
		func() *request { return read },
	}}}
	return r, nil
}

// mixedQueryText returns one of ≫128 distinct transform queries over a
// small document: an update kind applied to the persons with either of
// two ids. 4 kinds × 25 × 25 ids = 2500 texts against a 128-entry query
// cache, so parse, compile and plan are on the hot path.
func mixedQueryText(rng *rand.Rand, name string, people int) string {
	sel := fmt.Sprintf(`$a/site/people/person[@id = "person%d" or @id = "person%d"]`,
		rng.Intn(people), rng.Intn(people))
	switch rng.Intn(4) {
	case 0:
		return transform(name, "insert <newnode><info>inserted</info></newnode> into "+sel)
	case 1:
		return transform(name, "delete "+sel)
	case 2:
		return transform(name, "rename "+sel+" as renamed")
	default:
		return transform(name, "replace "+sel+" with <newnode><info>inserted</info></newnode>")
	}
}

func buildMixedSmallDocs(seed int64) (*run, error) {
	r := &run{name: "mixed_small_docs", seed: seed, durable: true, primary: opQuery}
	for i := 0; i < smallDocs; i++ {
		doc, err := genDoc(fmt.Sprintf("d%03d", i), smallFactor, seed*smallDocs+int64(i))
		if err != nil {
			return nil, err
		}
		r.docs = append(r.docs, doc)
	}
	r.view = viewDeleteUSRenamePerson("d")
	people, _, _, _ := xmark.Config{Factor: smallFactor}.Counts()
	rng := rand.New(rand.NewSource(seed))
	pick := zipfPicker(rng, 1.1, smallDocs)
	users := userQueryTexts()
	stamp := 0
	r.firstRead = viewQueryReq(0, r.docs[0].name, users[0])
	r.phases = []phase{{rate: mixedRate, conns: 2, open: func() *request {
		d := pick()
		name := r.docs[d].name
		switch p := rng.Intn(100); {
		case p < 70:
			return queryReq(d, name, mixedQueryText(rng, name, people))
		case p < 85:
			return viewQueryReq(d, name, users[rng.Intn(len(users))])
		case p < 90:
			return getDocReq(d, name)
		default:
			// Overwrites one fixed node, so the document's state is a
			// function of the last committed update alone: the oracle
			// needs no commit order beyond the version each read reports.
			stamp++
			text := transform(name, fmt.Sprintf(
				`replace $a/site/people/person[@id = "person0"]/name with <name>stamp %d</name>`, stamp))
			return updateReq(d, name, text, text)
		}
	}}}
	return r, nil
}

// describe is the one-line load description printed per workload.
func (r *run) describe() string {
	var parts []string
	for _, p := range r.phases {
		if p.rate > 0 {
			parts = append(parts, fmt.Sprintf("open loop %.0f req/s over %d connections", p.rate, p.conns))
		} else {
			parts = append(parts, fmt.Sprintf("closed loop %d client(s)", len(p.actors)))
		}
	}
	out := strings.Join(parts, ", then ")
	if r.probe != nil {
		out += fmt.Sprintf("; before that, on an instance of its own, a 1-client commit probe of %d commits per measured second", probeCommitsPerSecond)
	}
	return out
}
