// Command bench is the wire-level benchmark of xtqd: it builds cmd/xtqd
// from the working tree, spawns it on a loopback port, drives it over
// HTTP from this one process and checks what it timed against the
// paper's reference semantics. See README.md.
//
//	go run . [-seed N] [-seconds S]            # all four workloads, full report
//	go run . -workload W -seed N -seconds S -trace 0|1   # one run, JSON on the last line
//	go run . -selfcheck                         # A/A noise check against BENCHMARK.json
//	go run . -quick                             # 1 window × 1 s per workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is the command line.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	quick     bool
	selfcheck bool
	calibrate bool
	buildDir  string
	outDir    string
	specPath  string
	baseline  string
}

// env is what every run shares: the built xtqd, the directory scratch
// state lives under, and the set of live servers to stop on exit.
type env struct {
	xtqd    string
	scratch string
	outDir  string

	mu   sync.Mutex
	live map[*server]bool
}

func (e *env) track(s *server) {
	e.mu.Lock()
	e.live[s] = true
	e.mu.Unlock()
}

func (e *env) stop(s *server) {
	s.stop()
	e.mu.Lock()
	delete(e.live, s)
	e.mu.Unlock()
}

func (e *env) stopAll() {
	e.mu.Lock()
	servers := make([]*server, 0, len(e.live))
	for s := range e.live {
		servers = append(servers, s)
	}
	e.mu.Unlock()
	for _, s := range servers {
		e.stop(s)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run one workload and print one JSON result on the last line (default: the whole suite)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: documents, request order and arrival times derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run, split into 5 windows")
	flag.IntVar(&cfg.trace, "trace", 0, "with -workload: 0 = end-to-end metrics (tracing off), 1 = per-layer metrics (replay + traced run)")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke mode: 1 window × 1 s per workload, oracle on")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the suite twice on this build (A/A, 3 runs a side), compare against the bounds in BENCHMARK.json and write baseline/run-{a,b}.json")
	flag.BoolVar(&cfg.calibrate, "calibrate", false, "measure the closed-loop saturation of the mixed_small_docs mix (how the frozen open-loop rate was derived)")
	flag.StringVar(&cfg.buildDir, "build-dir", "", "directory for the xtqd binary and scratch state (default: a temporary directory, removed on exit)")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for trace-<workload>.json span files")
	flag.StringVar(&cfg.specPath, "spec", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json with the regression bounds")
	flag.StringVar(&cfg.baseline, "baseline", "baseline", "directory -selfcheck writes run-a.json and run-b.json to")
	flag.Parse()
	os.Exit(realMain(cfg))
}

func realMain(cfg config) int {
	if n := runtime.NumCPU(); n < 2 {
		fmt.Fprintf(os.Stderr, "bench: %d CPU; the load generator and xtqd need at least 2\n", n)
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	e, cleanup, err := newEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// A signal stops the children and removes scratch state before the
	// process exits; so does every normal return.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		cleanup()
		os.Exit(130)
	}()
	defer cleanup()

	switch {
	case cfg.calibrate:
		err = calibrate(e, cfg)
	case cfg.selfcheck:
		err = selfcheck(e, cfg)
	case cfg.workload != "":
		err = single(e, cfg)
	default:
		err = suite(e, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func newEnv(cfg config) (*env, func(), error) {
	e := &env{live: map[*server]bool{}, outDir: cfg.outDir}
	dir, temp := cfg.buildDir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "xtq-bench-")
		if err != nil {
			return nil, nil, err
		}
		dir, temp = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(dir, "scratch-")
	if err != nil {
		return nil, nil, err
	}
	e.scratch = scratch
	var once sync.Once
	cleanup := func() {
		once.Do(func() {
			e.stopAll()
			os.RemoveAll(scratch)
			if temp {
				os.RemoveAll(dir)
			}
		})
	}
	if e.xtqd, err = buildXtqd(dir); err != nil {
		cleanup()
		return nil, nil, err
	}
	return e, cleanup, nil
}

// errIncorrect marks a run whose numbers must not be used: a request
// failed, an answer differed from the reference, or the generator ran
// late.
var errIncorrect = errors.New("run incorrect")

// single is the driver's entry: one workload, one JSON object last.
func single(e *env, cfg config) error {
	info, ok := findWorkload(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var res *runResult
	var err error
	if cfg.trace == 1 {
		res, err = tracedRun(e, info, cfg.seed, shape(cfg))
	} else {
		res, err = untracedRun(e, info, cfg.seed, shape(cfg))
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	names := endToEndNames
	if cfg.trace == 1 {
		names = perLayerNames
	}
	line, err := res.driverJSON(names)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// suite runs every workload untraced, then traced, and prints the
// report with one layer table per workload.
func suite(e *env, cfg config) error {
	var bad []string
	var all []*runResult
	for _, info := range workloads {
		fmt.Printf("== %s: %s\n", info.name, info.why)
		res, err := untracedRun(e, info, cfg.seed, shape(cfg))
		if err != nil {
			return err
		}
		res.print(os.Stdout)
		traced, err := tracedRun(e, info, cfg.seed, shape(cfg))
		if err != nil {
			return err
		}
		traced.print(os.Stdout)
		all = append(all, res, traced)
		for _, r := range []*runResult{res, traced} {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s (trace %d)", r.Workload, r.Trace))
			}
		}
	}
	fmt.Println("== layer tables (median self time per request from the in-process replay, against the untraced windows' lat_p50_ms)")
	for _, r := range all {
		if r.Trace == 1 {
			r.printLayerTable(os.Stdout)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%w: %v", errIncorrect, bad)
	}
	return nil
}

// runShape is how a run divides its time.
type runShape struct {
	windows int
	window  time.Duration // measured time ÷ windows
	warmup  time.Duration
	setups  int // most set-up repetitions; setup_s is their median
}

// split divides a window between the run's main phases and its commit
// probe, if it has one: the main phases get the window's time less the
// probe's share, the probe a number of commits.
func (sh runShape) split(r *run) (main time.Duration, probeCommits int) {
	if r.probe == nil {
		return sh.window, 0
	}
	main = time.Duration(float64(sh.window) * (1 - probeShare))
	return main, int(probeCommitsPerSecond * sh.window.Seconds())
}

func shape(cfg config) runShape {
	if cfg.quick {
		return runShape{windows: 1, window: time.Second, warmup: 500 * time.Millisecond, setups: 1}
	}
	const windows = 5
	return runShape{windows: windows, window: time.Duration(cfg.seconds) * time.Second / windows,
		warmup: 2 * time.Second, setups: 9}
}

// envBlock records where a result set was measured.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() envBlock {
	b := envBlock{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Kernel: "unknown"}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(out))
	}
	if out, err := gitHead(); err == nil {
		b.Commit = out
	}
	return b
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
