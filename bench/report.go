package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// print writes the run's metrics by name with unit, sample count and
// the spread over its windows.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end (tracing off)"
	if r.Trace == 1 {
		kind = "per-layer (replay + traced run)"
	}
	fmt.Fprintf(w, "-- %s seed=%d %s: %s; windows of %.1f s\n", r.Workload, r.Seed, kind, r.Load, r.WindowSeconds)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "   %-34s %14.4f %-10s samples=%-7d spread=%.3f\n", m.Name, m.Value, m.Unit, m.Samples, m.Spread)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d oracle_checked=%d correct=%v\n", r.Attempted, r.Failed, r.OracleChecked, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   %s\n", p)
	}
}

// printLayerTable writes the workload's layer table: each layer's
// median self time per request of the primary kind, its share of the
// end-to-end median latency, and what no layer accounts for.
func (r *runResult) printLayerTable(w io.Writer) {
	p50, _ := r.get("lat_p50_ms")
	fmt.Fprintf(w, "-- %s: %s requests, lat_p50_ms %.4f\n", r.Workload, r.primary, p50.Value)
	fmt.Fprintf(w, "   %-20s %14s %10s %8s\n", "layer", "self_us/req", "share", "calls")
	for _, row := range r.layerTable {
		fmt.Fprintf(w, "   %-20s %14.2f %9.1f%% %8d\n", row.layer, row.selfUS, row.share*100, row.calls)
	}
	if handler, ok := r.get("xtqd.handler_p50_ms"); ok {
		fmt.Fprintf(w, "   %-20s %14.2f %9.1f%%\n", "xtqd handler p50", handler.Value*1e3, pctOf(handler.Value, p50.Value))
	}
	if res, ok := r.get("xtqd.transport_residual_ms"); ok {
		fmt.Fprintf(w, "   %-20s %14.2f %9.1f%%\n", "transport residual", res.Value*1e3, pctOf(res.Value, p50.Value))
	}
	if un, ok := r.get("xtqd.unaccounted_share"); ok {
		fmt.Fprintf(w, "   %-20s %14s %9.1f%%\n", "unaccounted", "", un.Value*100)
	}
}

func pctOf(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

// driverJSON renders the one-line result the driver reads: exactly the
// named metrics, each as measured.
func (r *runResult) driverJSON(names []string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	var missing []string
	for _, name := range names {
		m, ok := r.get(name)
		if !ok {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("run did not produce %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}
