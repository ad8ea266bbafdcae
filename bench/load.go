package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// requestTimeout bounds one request. A failed or timed-out request
// enters every latency percentile at this value, so it misses any
// latency limit a reader could set.
const requestTimeout = 10 * time.Second

const (
	oracleEvery  = 100 // 1 read in 100 is kept and checked against the oracle
	explainEvery = 50  // traced windows: 1 read in 50 is sent with ?explain=1
)

// client is the benchmark's one HTTP client: a single transport whose
// connection pool is capped at the number of concurrent senders.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is the outcome of one request.
type result struct {
	ok      bool
	lat     time.Duration // send → last body byte
	version uint64        // X-Xtq-Version of the response
	body    []byte        // kept only when asked for
	err     string
}

// sender issues requests on behalf of one worker, draining every
// response body through its own reused buffer.
type sender struct {
	c      *client
	oracle *oracle
	buf    []byte
	reads  int
	traced bool // send 1 read in explainEvery with ?explain=1

	kept     []keptRead
	explains []explainTimes
}

// keptRead is a sampled read response awaiting the oracle.
type keptRead struct {
	req     *request
	version uint64
	body    []byte
}

// explainTimes is what a ?explain=1 response says about its request.
type explainTimes struct {
	kind      opKind
	CompileNS int64 `json:"compile_ns"`
	EvalNS    int64 `json:"eval_ns"`
	WallNS    int64 `json:"wall_ns"`
}

func newSender(c *client, o *oracle) *sender {
	return &sender{c: c, oracle: o, buf: make([]byte, 64<<10)}
}

// send issues req and classifies the response. Reads are sampled for
// the oracle (or, on a traced window, for ?explain=1) by position;
// update responses feed the oracle's version → state map.
func (s *sender) send(req *request) result {
	keep, explain := false, false
	if req.kind != opUpdate {
		keep = s.reads%oracleEvery == 0
		explain = s.traced && s.reads%explainEvery == explainEvery/2 &&
			(req.kind == opQuery || req.kind == opViewQuery || req.kind == opViewRead)
		s.reads++
	}
	res := s.do(req, keep || explain, explain)
	switch {
	case !res.ok:
	case req.kind == opUpdate:
		s.oracle.committed(req, res.version)
	case explain:
		var e explainTimes
		if err := json.Unmarshal(res.body, &e); err == nil {
			e.kind = req.kind
			s.explains = append(s.explains, e)
		}
	case keep:
		s.kept = append(s.kept, keptRead{req, res.version, res.body})
	}
	res.body = nil
	return res
}

func (s *sender) do(req *request, keepBody, explain bool) result {
	method, body := http.MethodGet, io.Reader(nil)
	if req.kind == opQuery || req.kind == opUpdate {
		method, body = http.MethodPost, strings.NewReader(req.text)
	}
	target := s.c.base + req.path
	if explain {
		if strings.Contains(req.path, "?") {
			target += "&explain=1"
		} else {
			target += "?explain=1"
		}
	}
	start := time.Now()
	hreq, err := http.NewRequest(method, target, body)
	if err != nil {
		return result{err: err.Error()}
	}
	resp, err := s.c.hc.Do(hreq)
	if err != nil {
		return result{lat: time.Since(start), err: err.Error()}
	}
	var kept []byte
	if keepBody {
		kept, err = io.ReadAll(resp.Body)
	} else {
		for err == nil {
			_, err = resp.Body.Read(s.buf)
		}
		if err == io.EOF {
			err = nil
		}
	}
	resp.Body.Close()
	res := result{lat: time.Since(start), body: kept}
	if err != nil {
		res.err = err.Error()
		return res
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		res.err = fmt.Sprintf("%s %s: status %d", method, req.path, resp.StatusCode)
		return res
	}
	res.version, _ = strconv.ParseUint(resp.Header.Get("X-Xtq-Version"), 10, 64)
	res.ok = true
	return res
}

// window is everything measured in one measurement window.
type window struct {
	readMS, commitMS   []float64 // one latency per attempted request, failures at the timeout
	readOK, commitOK   int
	attempted, failed  int
	readDur, commitDur time.Duration // wall time during which reads / commits were being issued
	lateMS             []float64     // open loop: how late the generator sent a request it had a free connection for
	connWaitMS         []float64     // open loop: how long a request waited past its due time for a free connection
	cpuMS              float64       // xtqd CPU time spent during the window
	errs               []string
	died               bool
}

func (w *window) record(req *request, lat time.Duration, res result) {
	w.attempted++
	ms := float64(lat) / float64(time.Millisecond)
	if !res.ok {
		w.failed++
		ms = float64(requestTimeout) / float64(time.Millisecond)
		if len(w.errs) < 5 {
			w.errs = append(w.errs, res.err)
		}
	}
	if req.kind == opUpdate {
		w.commitMS = append(w.commitMS, ms)
		if res.ok {
			w.commitOK++
		}
	} else {
		w.readMS = append(w.readMS, ms)
		if res.ok {
			w.readOK++
		}
	}
}

// loadRun drives one server with one run's phases.
type loadRun struct {
	run     *run
	srv     *server
	client  *client
	oracle  *oracle
	senders []*sender // one per connection, reused across windows
	// arrivals draws the open loop's due times, apart from the stream
	// the request contents are drawn from.
	arrivals *rand.Rand
}

func newLoadRun(r *run, srv *server, o *oracle) *loadRun {
	conns := 1 // the probe's single writer
	for _, p := range r.phases {
		n := len(p.actors)
		if p.rate > 0 {
			n = p.conns
		}
		if n > conns {
			conns = n
		}
	}
	l := &loadRun{run: r, srv: srv, client: newClient(srv.url, conns), oracle: o,
		arrivals: rand.New(rand.NewSource(r.seed ^ 0x5eed))}
	for i := 0; i < conns; i++ {
		l.senders = append(l.senders, newSender(l.client, o))
	}
	return l
}

// measure runs one window of the given phases, d each. traced switches
// ?explain=1 sampling on for the window.
func (l *loadRun) measure(phases []phase, d time.Duration, traced bool) (*window, error) {
	w := &window{}
	for _, s := range l.senders {
		s.traced = traced
	}
	cpu0, err := l.srv.cpuMS()
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		if p.rate > 0 {
			l.openPhase(w, p, d)
		} else {
			l.closedPhase(w, p, d)
		}
	}
	if !w.died {
		cpu1, err := l.srv.cpuMS()
		if err != nil {
			return nil, err
		}
		w.cpuMS = cpu1 - cpu0
	}
	return w, nil
}

type sampleRec struct {
	req *request
	res result
}

// closedPhase runs the phase's actors concurrently until the deadline
// (or, for a counted phase, for p.count requests each); an actor sends
// its next request only when the previous one completed.
func (l *loadRun) closedPhase(w *window, p phase, d time.Duration) {
	recs := make([][]sampleRec, len(p.actors))
	diedAt := make([]time.Duration, len(p.actors)) // 0 = survived
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, a := range p.actors {
		wg.Add(1)
		go func(i int, next source, s *sender) {
			defer wg.Done()
			for n := 0; (p.count == 0 && time.Now().Before(deadline)) || n < p.count; n++ {
				req := next()
				res := s.send(req)
				recs[i] = append(recs[i], sampleRec{req, res})
				if !res.ok && l.srv.dead() {
					diedAt[i] = time.Since(start)
					return
				}
			}
		}(i, a, l.senders[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	hasReads, hasCommits := false, false
	for i, rs := range recs {
		for _, r := range rs {
			w.record(r.req, r.res.lat, r.res)
			if r.req.kind == opUpdate {
				hasCommits = true
			} else {
				hasReads = true
			}
		}
		if done := diedAt[i]; done > 0 {
			// The server is gone: the requests this client would still
			// have sent are failures, not a shorter run.
			w.died = true
			lost := p.count - len(rs)
			if left := d - done; p.count == 0 && left > 0 {
				lost = int(float64(len(rs)) * float64(left) / float64(done))
			}
			if lost > 0 {
				w.attempted += lost
				w.failed += lost
			}
		}
	}
	if hasReads {
		w.readDur += elapsed
	}
	if hasCommits {
		w.commitDur += elapsed
	}
}

// openPhase issues Poisson arrivals at the phase's fixed rate for d,
// whatever the server's speed, and waits for the last to complete.
func (l *loadRun) openPhase(w *window, p phase, d time.Duration) {
	n := int(p.rate * d.Seconds())
	sched := make([]scheduled, n)
	for i, due := range poissonArrivals(l.arrivals, p.rate, n) {
		sched[i] = scheduled{due: due, req: p.open()}
	}
	start := time.Now()
	samples := runOpenLoop(realClock{}, sched, p.conns, func(worker int, req *request) result {
		return l.senders[worker].send(req)
	})
	elapsed := time.Since(start)
	for _, s := range samples {
		w.record(s.req, s.latency(), s.res)
		late := float64(s.lateness()) / float64(time.Millisecond)
		if s.slept {
			w.lateMS = append(w.lateMS, late)
		} else {
			w.connWaitMS = append(w.connWaitMS, late)
		}
	}
	if l.srv.dead() {
		w.died = true
	}
	w.readDur += elapsed
	w.commitDur += elapsed
}

// verify checks every kept read against the oracle and returns the
// mismatches; the kept bodies are released.
func (l *loadRun) verify() (checked int, mismatches []string) {
	for _, s := range l.senders {
		for _, k := range s.kept {
			checked++
			if err := l.oracle.check(k.req, k.version, k.body); err != nil {
				mismatches = append(mismatches, err.Error())
			}
		}
		s.kept = nil
	}
	return checked, mismatches
}

// verifyFinal reads back every document that was written and compares
// it with the reference state of the last acknowledged commit.
func (l *loadRun) verifyFinal() (checked int, mismatches []string) {
	docs := l.oracle.updatedDocs()
	sort.Ints(docs)
	s := newSender(l.client, l.oracle)
	for _, d := range docs {
		req := getDocReq(d, l.run.docs[d].name)
		res := s.do(req, true, false)
		checked++
		if !res.ok {
			mismatches = append(mismatches, "final read: "+res.err)
			continue
		}
		if err := l.oracle.check(req, res.version, res.body); err != nil {
			mismatches = append(mismatches, "final state: "+err.Error())
		}
	}
	return checked, mismatches
}

func (l *loadRun) explains() []explainTimes {
	var out []explainTimes
	for _, s := range l.senders {
		out = append(out, s.explains...)
		s.explains = nil
	}
	return out
}
