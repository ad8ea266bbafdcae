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

// newAutoTestServer serves a store whose engine runs method=auto — what
// `xtqd` runs by default.
func newAutoTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	st := xtq.NewStore(xtq.NewEngine(xtq.WithMethod(xtq.MethodAuto)))
	ts := httptest.NewServer(newServer(st, 5*time.Second, 1<<20))
	t.Cleanup(ts.Close)
	return ts
}

type planBody struct {
	Method string `json:"method"`
	Plan   *struct {
		Method string `json:"method"`
		Auto   bool   `json:"auto"`
		Reason string `json:"reason"`
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
// auto engine: auto resolves to topdown and names the rule, while a
// forced ?method= runs that method and carries no plan section.
func TestExplainReportsPlan(t *testing.T) {
	ts := newAutoTestServer(t)
	if code, _, body := do(t, "PUT", ts.URL+"/docs/d", testDoc, nil); code != http.StatusCreated {
		t.Fatalf("put: %d %s", code, body)
	}

	// The server's default and an explicit ?method=auto both decide.
	for _, url := range []string{"/docs/d/query?explain=1", "/docs/d/query?explain=1&method=auto"} {
		out := explainPlan(t, ts.URL+url)
		if p := out.Plan; p == nil || p.Method != "topdown" || !p.Auto || p.Reason == "" {
			t.Fatalf("%s: plan = %+v, want {topdown, auto, reason}", url, p)
		}
		if out.Method != "topdown" {
			t.Errorf("%s: ran %q, want topdown", url, out.Method)
		}
	}

	for _, forced := range []string{"naive", "twopass", "copyupdate", "topdown"} {
		out := explainPlan(t, ts.URL+"/docs/d/query?explain=1&method="+forced)
		if out.Method != forced {
			t.Errorf("forced %s: ran %q", forced, out.Method)
		}
		if out.Plan != nil {
			t.Errorf("forced %s: plan section %+v, want none", forced, out.Plan)
		}
	}

	code, _, metrics := do(t, "GET", ts.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(metrics, "xtq_plan_decisions_total") {
		t.Error("family xtq_plan_decisions_total missing from /metrics")
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
