package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"xtq/internal/core"
	"xtq/internal/queries"
	"xtq/internal/store"
)

// soaFactors are the corpus scales of the path-copy sweep.
// The small factor matches the BENCH_PR5/PR7 store baselines (the
// whole-tree-copy commit there moved ~2.1 MB per commit); the large one
// shows the copy volume growing with the touched spine, not the
// document.
var soaFactors = []float64{0.01, 0.1}

// SoA runs the path-copy sweep (`xbench -soa`; the flag keeps its PR 8
// name): per factor, the sealed-snapshot evaluation latency (the store
// read path) and the path-copy commit under the alternating //item
// rename writer, with the copy volume and node-sharing split the Commit
// reports. The headline column is copied KB/commit: before path copying
// the store copied the whole tree (2141 KB at factor 0.01, see
// BENCH_PR5.json); now only the spine moves.
func (r *Runner) SoA() {
	fmt.Fprintf(r.opts.Out, "SoA sweep: sealed-snapshot reads (U2) + alternating //item rename commits, factors %v\n", soaFactors)
	var rows [][]string
	for _, factor := range soaFactors {
		if r.stopped() {
			break
		}
		cell, err := r.measureSoACell(factor)
		if err != nil {
			panic(err)
		}
		if r.stopped() {
			break // drop the interrupted row
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", factor),
			fmt.Sprintf("%d", cell.docKB),
			fmt.Sprintf("%.1f", cell.readUs),
			fmt.Sprintf("%.2f", cell.commitMs),
			fmt.Sprintf("%.0f", cell.copiedKB),
			fmt.Sprintf("%.0f%%", cell.sharedPct),
		})
	}
	table(r.opts.Out, []string{"factor", "doc KB", "read us", "commit ms", "copied KB/commit", "nodes shared"}, rows)
}

// soaCell is one measured factor of the SoA sweep.
type soaCell struct {
	docKB       int
	docNodes    int
	readUs      float64
	readRes     testing.BenchmarkResult
	commitMs    float64
	commitRes   testing.BenchmarkResult
	copiedKB    float64
	copiedBytes float64
	sharedPct   float64
}

// measureSoACell builds a store over the factor's corpus and measures
// the sealed read and the alternating-rename commit with
// testing.Benchmark, folding the Commit copy/sharing counters into
// per-op averages.
func (r *Runner) measureSoACell(factor float64) (soaCell, error) {
	xml := r.XML(factor)
	doc := r.Doc(factor)
	st := store.New()
	if _, _, err := st.Put("d", doc.DeepCopy(), true); err != nil {
		return soaCell{}, err
	}
	readC, err := queries.Compile(2)
	if err != nil {
		return soaCell{}, err
	}
	writeA, writeB, err := StoreWriteQueries()
	if err != nil {
		return soaCell{}, err
	}

	cell := soaCell{docKB: len(xml) / 1024, docNodes: doc.Size()}

	cell.readRes = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, err := st.Snapshot("d")
			if err != nil {
				panic(err)
			}
			_, err = readC.EvalContext(r.opts.Context, snap.Root(), core.MethodTopDown)
			r.check(err)
		}
	})
	cell.readUs = float64(cell.readRes.T.Nanoseconds()) / float64(cell.readRes.N) / 1e3

	var copied, sharedNodes, totalNodes int64
	cell.commitRes = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		copied, sharedNodes, totalNodes = 0, 0, 0
		for i := 0; i < b.N; i++ {
			writeC := writeA
			if i%2 == 1 {
				writeC = writeB
			}
			_, com, err := st.Apply(r.opts.Context, "d", writeC, core.MethodTopDown)
			r.check(err)
			copied += com.CopiedBytes
			sharedNodes += int64(com.SharedWithPrev)
			totalNodes += int64(com.CopiedNodes + com.SharedWithPrev)
		}
		if b.N > 0 {
			b.ReportMetric(float64(copied)/float64(b.N), "copied-B/op")
		}
	})
	n := float64(cell.commitRes.N)
	cell.commitMs = float64(cell.commitRes.T.Nanoseconds()) / n / 1e6
	cell.copiedBytes = float64(copied) / n
	cell.copiedKB = cell.copiedBytes / 1024
	if totalNodes > 0 {
		cell.sharedPct = 100 * float64(sharedNodes) / float64(totalNodes)
	}
	return cell, nil
}

// SoAJSON writes the machine-readable SoA sweep (`xbench -soa -json`),
// the format of BENCH_PR8.json. It measures both soaFactors regardless
// of the -jsonfactor flag — the report's purpose is the cross-PR
// comparison against the store rows of BENCH_PR5.json (whole-tree
// copy) and the commit rows of BENCH_PR7.json at factor 0.01, plus the
// factor-0.1 scaling row. Row names carry the factor; per-factor
// corpus sizes ride in Extra.
func (r *Runner) SoAJSON(w io.Writer, factor float64) error {
	_ = factor // the sweep is defined over soaFactors; see doc comment
	report := &BenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Factor:    soaFactors[0],
		DocBytes:  len(r.XML(soaFactors[0])),
		DocNodes:  r.Doc(soaFactors[0]).Size(),
	}
	for _, f := range soaFactors {
		if r.stopped() {
			break
		}
		cell, err := r.measureSoACell(f)
		if err != nil {
			return err
		}
		if r.stopped() {
			break
		}
		read := toResult(fmt.Sprintf("soa/read/U2/f%g", f), cell.readRes)
		if read.Extra == nil {
			read.Extra = map[string]float64{}
		}
		read.Extra["doc_bytes"] = float64(cell.docKB * 1024)
		read.Extra["doc_nodes"] = float64(cell.docNodes)
		commit := toResult(fmt.Sprintf("soa/commit/rename-items/f%g", f), cell.commitRes)
		if commit.Extra == nil {
			commit.Extra = map[string]float64{}
		}
		commit.Extra["doc_bytes"] = float64(cell.docKB * 1024)
		commit.Extra["shared_nodes_pct"] = cell.sharedPct
		report.Results = append(report.Results, read, commit)
	}
	if err := r.opts.Context.Err(); err != nil {
		return fmt.Errorf("soa sweep interrupted: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// SoASmoke runs the CI copy-tax check: on the factor-0.01
// alternating-rename workload, the bytes a commit copies must stay
// below maxFrac of the document's size in the store — the bytes the
// initial Put reports for freezing the whole tree, which is exactly
// what every commit used to copy before path copying (~2.1 MB at this
// factor, see store/commit/rename-items in BENCH_PR5.json). It returns
// the measured fraction. A failure means structural sharing regressed —
// some path started copying subtrees it used to share.
func (r *Runner) SoASmoke(maxFrac float64) (float64, error) {
	const factor = 0.01
	doc := r.Doc(factor)
	st := store.New()
	// adopt=false: the store freezes its own copy and the Commit reports
	// the full-tree copy cost — the denominator of the tax.
	_, put, err := st.Put("d", doc, false)
	if err != nil {
		return 0, err
	}
	if put.CopiedBytes <= 0 {
		return 0, fmt.Errorf("initial Put reported %d copied bytes; cannot size the document", put.CopiedBytes)
	}
	writeA, writeB, err := StoreWriteQueries()
	if err != nil {
		return 0, err
	}
	const commits = 20
	var copied int64
	start := time.Now()
	for i := 0; i < commits; i++ {
		writeC := writeA
		if i%2 == 1 {
			writeC = writeB
		}
		_, com, err := st.Apply(r.opts.Context, "d", writeC, core.MethodTopDown)
		if err != nil {
			return 0, err
		}
		copied += com.CopiedBytes
	}
	perCommit := float64(copied) / commits
	frac := perCommit / float64(put.CopiedBytes)
	fmt.Fprintf(r.opts.Out, "soa smoke: %d commits in %v, %.0f KB copied/commit over a %.0f KB document (%.1f%%, limit %.0f%%)\n",
		commits, time.Since(start).Round(time.Millisecond), perCommit/1024, float64(put.CopiedBytes)/1024, 100*frac, 100*maxFrac)
	if frac >= maxFrac {
		return frac, fmt.Errorf("copy tax regression: %.0f bytes copied per commit is %.1f%% of the %d-byte document (limit %.0f%%)",
			perCommit, 100*frac, put.CopiedBytes, 100*maxFrac)
	}
	return frac, nil
}
