// Command xbench reproduces the experimental study of the paper (§7):
// one table per figure, generated on the fly from the XMark-like workload.
//
// Usage:
//
//	xbench -all                        # every figure at default scale
//	xbench -fig12                      # method comparison, factor 0.02
//	xbench -fig13 -factors 0.02,0.1,0.18,0.26,0.34
//	xbench -fig14 -fig14factors 2,4,6,8,10   # the paper's 224 MB-1.1 GB sweep
//	xbench -fig15 -repeats 5
//	xbench -claims                     # §7.1 textual claims
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"xtq/internal/harness"
)

func parseFactors(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad factor %q: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func main() {
	fig11 := flag.Bool("fig11", false, "print the workload table (Fig. 11)")
	fig12 := flag.Bool("fig12", false, "method comparison at factor 0.02 (Fig. 12)")
	fig13 := flag.Bool("fig13", false, "scalability sweep (Fig. 13)")
	fig14 := flag.Bool("fig14", false, "twoPassSAX on large files (Fig. 14)")
	fig15 := flag.Bool("fig15", false, "composition methods (Fig. 15)")
	views := flag.Bool("views", false, "stacked-view sweep: single-pass vs sequential, per-layer stats")
	storeSweep := flag.Bool("store", false, "store throughput sweep: concurrent readers + 1 update writer over snapshots")
	walSweep := flag.Bool("wal", false, "durability sweep: commit latency/throughput across WAL fsync policies vs the in-memory store")
	ivmSweep := flag.Bool("ivm", false,
		"view-maintenance sweep: maintained hot-view reads vs recomposition, commit overhead by registry size, /watch fan-out; with -json the report replaces the standard sweep")
	soaSweep := flag.Bool("soa", false,
		"path-copy sweep: sealed-snapshot read latency + path-copy commit copy volume at factors 0.01 and 0.1; with -json the report replaces the standard sweep")
	soaSmoke := flag.Bool("soasmoke", false,
		"CI copy-tax check: fail unless copied bytes per commit stay below 10% of the document size on the alternating-rename workload")
	planSweep := flag.Bool("plan", false,
		"planner sweep: cost-based method choice vs every static method per embedded query, with estimated-vs-actual visits; with -json the report replaces the standard sweep")
	planSmoke := flag.Bool("plansmoke", false,
		"CI planner check: fail unless planning per evaluation stays within 25% of the best static method on every embedded query")
	obsSweep := flag.Bool("obs", false,
		"observability overhead sweep: hot read and commit latency with the metrics registry enabled vs killed; with -json the report replaces the standard sweep")
	obsSmoke := flag.Bool("obssmoke", false,
		"CI observability check: fail unless registry overhead on the hot read path stays below 2%")
	claims := flag.Bool("claims", false, "check the §7.1 textual claims")
	jsonOut := flag.String("json", "", "write a machine-readable sweep (ns/op, allocs/op) to the given path ('-' for stdout)")
	jsonFactor := flag.Float64("jsonfactor", 0.01, "XMark factor for the -json and -cluster sweeps")
	cluster := flag.Bool("cluster", false,
		"replication sweep: single-node vs 1-primary/N-follower read throughput and lag percentiles; with -json the report replaces the standard sweep")
	all := flag.Bool("all", false, "run everything")
	factors := flag.String("factors", "", "comma-separated factors for Fig. 13/15 (default 0.02..0.34)")
	fig14factors := flag.String("fig14factors", "", "comma-separated factors for Fig. 14 (default 0.1,0.2,0.4; paper used 2..10)")
	repeats := flag.Int("repeats", 3, "measurements per cell; the median is reported")
	seed := flag.Int64("seed", 42, "workload generator seed")
	tmp := flag.String("tmp", "", "directory for generated large files (default: system temp)")
	flag.Parse()

	fs, err := parseFactors(*factors)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(2)
	}
	f14, err := parseFactors(*fig14factors)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(2)
	}
	// Ctrl-C cancels the evaluation context: the in-flight measurement
	// aborts at node/SAX-event granularity and the sweep stops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := harness.New(harness.Options{
		Out:          os.Stdout,
		Context:      ctx,
		Factors:      fs,
		Fig14Factors: f14,
		Repeats:      *repeats,
		Seed:         *seed,
		TempDir:      *tmp,
	})

	ran := false
	section := func(enabled bool, fn func()) {
		if (enabled || *all) && ctx.Err() == nil {
			fn()
			fmt.Println()
			ran = true
		}
	}
	section(*fig11, r.Fig11)
	section(*fig12, r.Fig12)
	section(*fig13, r.Fig13)
	section(*fig14, r.Fig14)
	section(*fig15, r.Fig15)
	section(*views, r.Views)
	section(*storeSweep, r.Store)
	section(*walSweep, r.WAL)
	section(*claims, r.Claims)
	if *ivmSweep && *jsonOut == "" {
		section(true, r.IVM)
	}
	if *soaSweep && *jsonOut == "" {
		section(true, r.SoA)
	}
	if *soaSmoke && ctx.Err() == nil {
		if _, err := r.SoASmoke(0.10); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		ran = true
	}
	if *planSweep && *jsonOut == "" {
		section(true, r.Plan)
	}
	if *planSmoke && ctx.Err() == nil {
		if err := r.PlanSmoke(0.25); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		ran = true
	}
	if *obsSweep && *jsonOut == "" {
		section(true, func() {
			if err := runObsTable(ctx, r, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "xbench:", err)
				os.Exit(1)
			}
		})
	}
	if *obsSmoke && ctx.Err() == nil {
		if err := runObsSmoke(ctx, r, os.Stdout, 0.02); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		ran = true
	}
	if *jsonOut != "" && ctx.Err() == nil {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		sweep := r.BenchJSON
		if *cluster {
			sweep = r.ClusterJSON
		}
		if *ivmSweep {
			sweep = r.IVMJSON
		}
		if *soaSweep {
			sweep = r.SoAJSON
		}
		if *planSweep {
			sweep = r.PlanJSON
		}
		if *obsSweep {
			sweep = func(w io.Writer, _ float64) error { return writeObsJSON(ctx, r, w) }
		}
		if err := sweep(w, *jsonFactor); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		ran = true
	} else if *cluster && ctx.Err() == nil {
		if err := r.ClusterJSON(os.Stdout, *jsonFactor); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(1)
		}
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "xbench: interrupted")
		os.Exit(130)
	}
}
