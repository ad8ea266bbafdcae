package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xtq"
)

// newAutoTestServer serves a store whose engine plans the method per
// (query, document) — what `xtqd` runs by default (-planner).
func newAutoTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := xtq.NewStore(xtq.NewEngine(xtq.WithMethod(xtq.MethodAuto)))
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	t.Cleanup(ts.Close)
	return ts
}

type planBody struct {
	Method        string `json:"method"`
	PlannedMethod string `json:"planned_method"`
	NodesVisited  int    `json:"nodes_visited"`
	Plan          *struct {
		Method   string  `json:"method"`
		Auto     bool    `json:"auto"`
		EstNodes int64   `json:"est_nodes"`
		EstCost  float64 `json:"est_cost"`
		Reason   string  `json:"reason"`
	} `json:"plan"`
}

func explainPlan(t *testing.T, url string) planBody {
	t.Helper()
	code, _, body := do(t, "POST", url, testQuery, nil)
	if code != http.StatusOK {
		t.Fatalf("explain: %d %s", code, body)
	}
	var out planBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("explain body %q: %v", body, err)
	}
	return out
}

// TestExplainReportsPlan checks the planner section of ?explain=1 on an
// auto engine: a concrete planned method with its estimates, and — the
// regression this pins — a forced ?method= always overriding the
// planner while the explain body still records both the forced method
// and the planner's would-be choice (planned_method).
func TestExplainReportsPlan(t *testing.T) {
	ts := newAutoTestServer(t)
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}

	// Auto: the planner picks; explain carries its decision.
	out := explainPlan(t, ts.URL+"/docs/d/query?explain=1")
	if out.Plan == nil {
		t.Fatal("auto explain has no plan section")
	}
	if !out.Plan.Auto {
		t.Error("auto explain: plan.auto = false")
	}
	if out.Method == "" || out.Method == string(xtq.MethodAuto) {
		t.Errorf("auto explain: non-concrete method %q", out.Method)
	}
	if out.Plan.Method != out.Method {
		t.Errorf("auto explain: plan.method %q != method %q", out.Plan.Method, out.Method)
	}
	if out.Plan.EstNodes < 1 || out.Plan.EstCost <= 0 || out.Plan.Reason == "" {
		t.Errorf("auto explain: degenerate estimates %+v", out.Plan)
	}
	if out.PlannedMethod != "" {
		t.Errorf("auto explain: planned_method %q set without an override", out.PlannedMethod)
	}

	// Forced ?method= always overrides the planner, whatever it would
	// have chosen; explain reports both sides.
	for _, forced := range []string{"naive", "twopass", "copyupdate", "topdown"} {
		out := explainPlan(t, ts.URL+"/docs/d/query?explain=1&method="+forced)
		if out.Method != forced {
			t.Errorf("forced %s: ran %q", forced, out.Method)
		}
		if out.Plan == nil {
			t.Fatalf("forced %s: no plan section", forced)
		}
		if out.Plan.Auto {
			t.Errorf("forced %s: plan.auto = true", forced)
		}
		if out.PlannedMethod == "" || out.PlannedMethod == string(xtq.MethodAuto) {
			t.Errorf("forced %s: planned_method = %q, want the planner's concrete choice",
				forced, out.PlannedMethod)
		}
		if out.Plan.EstNodes < 1 {
			t.Errorf("forced %s: no estimate for the forced method", forced)
		}
	}

	// ?method=auto on any server asks the planner explicitly.
	out = explainPlan(t, ts.URL+"/docs/d/query?explain=1&method=auto")
	if out.Plan == nil || !out.Plan.Auto {
		t.Fatalf("method=auto: plan = %+v, want auto section", out.Plan)
	}

	// The planner families made it to /metrics.
	code, _, metrics := do(t, "GET", ts.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, fam := range []string{"xtq_plan_decisions_total", "xtq_plan_est_error_ratio"} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
}

// TestUpdatePlansMethod commits an update through an auto engine: the
// store resolves the method per snapshot and the explain body carries
// the decision next to the commit section.
func TestUpdatePlansMethod(t *testing.T) {
	ts := newAutoTestServer(t)
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}
	code, _, body := do(t, "POST", ts.URL+"/docs/d/update?explain=1", testQuery, nil)
	if code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	var out struct {
		Method string `json:"method"`
		Plan   *struct {
			Auto   bool   `json:"auto"`
			Method string `json:"method"`
		} `json:"plan"`
		Commit *struct {
			Version uint64 `json:"version"`
		} `json:"commit"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("update explain body %q: %v", body, err)
	}
	if out.Plan == nil || !out.Plan.Auto {
		t.Fatalf("update explain plan = %+v, want auto section", out.Plan)
	}
	if out.Method == "" || out.Method == string(xtq.MethodAuto) {
		t.Errorf("update explain: non-concrete method %q", out.Method)
	}
	if out.Commit == nil || out.Commit.Version != 2 {
		t.Errorf("update explain commit = %+v, want version 2", out.Commit)
	}
}

// TestQualifiedViewOnPlannerServer pins the PR 11 finding: on a default
// (-planner) xtqd a maintained view whose layer carries a qualifier
// answered 500 "method auto must be resolved by the planner", because
// the IVM manager's sequential evaluation was handed the auto directive.
// Both registrations are covered — lazy (PUT /views over HTTP) and
// eagerly materialized (facade) — before and after a commit.
func TestQualifiedViewOnPlannerServer(t *testing.T) {
	st := xtq.NewStore(xtq.NewEngine(xtq.WithMethod(xtq.MethodAuto)))
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	t.Cleanup(ts.Close)
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}
	layer := `transform copy $a := doc("d") modify do delete $a//supplier[sname = "HP"] return $a`
	stack, err := json.Marshal([]string{layer})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, body := do(t, "PUT", ts.URL+"/views/lazy", string(stack), nil); code != http.StatusCreated {
		t.Fatalf("register lazy view: %d %s", code, body)
	}
	if _, err := st.RegisterMaterializedView("eager", layer); err != nil {
		t.Fatal(err)
	}
	check := func(wantVersion string) {
		t.Helper()
		for _, v := range []string{"lazy", "eager"} {
			code, hdr, body := do(t, "GET", ts.URL+"/docs/d/views/"+v, "", nil)
			if code != http.StatusOK {
				t.Fatalf("view %s: %d %s", v, code, body)
			}
			if strings.Contains(body, "HP") || !strings.Contains(body, "Dell") {
				t.Errorf("view %s: wrong content %s", v, body)
			}
			if got := hdr.Get("X-Xtq-Version"); got != wantVersion {
				t.Errorf("view %s: version %s, want %s", v, got, wantVersion)
			}
		}
	}
	check("1")
	if code, _, body := do(t, "POST", ts.URL+"/docs/d/update",
		`transform copy $a := doc("d") modify do delete $a//country return $a`, nil); code != http.StatusOK {
		t.Fatalf("update: %d %s", code, body)
	}
	check("2")
}
