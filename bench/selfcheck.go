package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the self-check reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func gitHead() (string, error) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	return strings.TrimSpace(string(out)), err
}

// resultSet is one side of the A/A comparison as committed under
// baseline/.
type resultSet struct {
	Env  envBlock     `json:"env"`
	Runs []*runResult `json:"runs"`
}

// selfcheckRepeats is how many runs each side of the A/A comparison
// makes per workload, each with another seed (the same seeds on both
// sides). One run per side does not repeat within the bounds on this
// box: the fsync-bound tail latencies of two single runs differed by up
// to 36 %; medians of three did not.
const selfcheckRepeats = 3

// selfcheck runs the untraced suite twice on the same build, the two
// sides interleaved run by run (A, B, A, B, …), prints per end-to-end
// metric each side's median over its runs with their relative
// difference, and fails if any differs by more than its bound in
// BENCHMARK.json. Both result sets are written to the baseline
// directory.
func selfcheck(e *env, cfg config) error {
	sp, err := readSpec(cfg.specPath)
	if err != nil {
		return err
	}
	a, b := &resultSet{Env: currentEnv()}, &resultSet{Env: currentEnv()}
	for _, info := range workloads {
		for i := 0; i < selfcheckRepeats; i++ {
			for _, side := range []*resultSet{a, b} {
				res, err := untracedRun(e, info, cfg.seed+int64(i), shape(cfg))
				if err != nil {
					return err
				}
				res.print(os.Stdout)
				side.Runs = append(side.Runs, res)
			}
		}
	}
	if err := writeJSONFile(filepath.Join(cfg.baseline, "run-a.json"), a); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(cfg.baseline, "run-b.json"), b); err != nil {
		return err
	}
	fmt.Printf("== A/A: two sets of runs of the same build, medians of %d runs (seeds %d..%d), %s\n",
		selfcheckRepeats, cfg.seed, cfg.seed+selfcheckRepeats-1, time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("   %-18s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	var over []string
	for _, info := range workloads {
		if !a.correct(info.name) || !b.correct(info.name) {
			over = append(over, info.name+": a run was incorrect")
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.median(info.name, m.Name), b.median(info.name, m.Name)
			diff := relDiff(va, vb)
			flag := ""
			if diff > m.Bound {
				flag = "  OVER"
				over = append(over, fmt.Sprintf("%s %s: %.1f%% > %.0f%%", info.name, m.Name, diff*100, m.Bound*100))
			}
			fmt.Printf("   %-18s %-24s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", info.name, m.Name, va, vb, diff*100, m.Bound*100, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A difference exceeds the bound: %s", strings.Join(over, "; "))
	}
	return nil
}

// median is the median of one metric over the set's runs of a workload.
func (s *resultSet) median(workload, name string) float64 {
	var vals []float64
	for _, r := range s.Runs {
		if m, ok := r.get(name); ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	return median(vals)
}

func (s *resultSet) correct(workload string) bool {
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Correct {
			return false
		}
	}
	return true
}

// relDiff is |a−b| relative to their mean.
func relDiff(a, b float64) float64 {
	mean := (a + b) / 2
	if mean == 0 {
		return 0
	}
	return math.Abs(a-b) / mean
}

// calibrate measures the closed-loop saturation of the mixed_small_docs
// mix: the same request stream sent by two clients back to back. The
// frozen open-loop rate (mixedRate) is a quarter of what this prints on the
// seed commit.
func calibrate(e *env, cfg config) error {
	info, _ := findWorkload("mixed_small_docs")
	r, err := info.build(cfg.seed)
	if err != nil {
		return err
	}
	open := r.phases[0]
	next := make(chan *request)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case next <- open.open():
			case <-stop:
				return
			}
		}
	}()
	pull := func() *request { return <-next }
	r.phases = []phase{{actors: []source{pull, pull}}}
	o, err := newOracle(r)
	if err != nil {
		return err
	}
	l, _, err := setUp(e, r, o)
	if err != nil {
		return err
	}
	defer l.shutdown(e)
	sh := shape(cfg)
	if _, err := l.measure(r.phases, sh.warmup, false); err != nil {
		return err
	}
	var rates []float64
	for i := 0; i < sh.windows; i++ {
		w, err := l.measure(r.phases, sh.window, false)
		if err != nil {
			return err
		}
		rates = append(rates, rate(w.readOK+w.commitOK, w.readDur))
	}
	fmt.Printf("mixed_small_docs closed-loop saturation: %.0f req/s (median of %d windows, spread %.3f); a quarter = %.0f; frozen mixedRate = %d\n",
		median(rates), len(rates), spread(rates), median(rates)/4, mixedRate)
	return nil
}
