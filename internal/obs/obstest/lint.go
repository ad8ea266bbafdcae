// Package obstest holds test-only helpers for the observability layer:
// a Prometheus text-exposition parser and linter shared by the obs unit
// tests and the serving layer's /metrics round-trip tests.
package obstest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRe      = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelPairRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
	leRe        = regexp.MustCompile(`(^|,)le="[^"]*"`)
)

// Lint parses a text exposition and applies the Prometheus naming and
// structure lints this repo commits to: valid metric and label names,
// HELP+TYPE preceding every family's samples, counters ending in
// _total, histograms ending in a base unit (_seconds, _ratio), gauges not ending in
// _total, cumulative buckets monotonic and the +Inf bucket equal to
// _count. It returns the set of family names seen, so callers can
// additionally assert coverage (engine, store, WAL, ... families all
// present).
func Lint(t *testing.T, text string) map[string]string {
	t.Helper()
	type fam struct {
		typ     string
		help    bool
		samples int
	}
	fams := map[string]*fam{}
	nameOf := func(sample string) string {
		if i := strings.IndexAny(sample, "{ "); i >= 0 {
			return sample[:i]
		}
		return sample
	}
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suf); trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					return trimmed
				}
			}
		}
		return name
	}
	lastCum := map[string]uint64{}
	count := map[string]uint64{}
	infSeen := map[string]uint64{}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name := nameOf(rest)
			if fams[name] == nil {
				fams[name] = &fam{}
			}
			fams[name].help = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			name, typ := parts[0], parts[1]
			if fams[name] == nil {
				fams[name] = &fam{}
			}
			f := fams[name]
			if f.samples > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", ln+1, name)
			}
			f.typ = typ
			if !nameRe.MatchString(name) {
				t.Fatalf("line %d: invalid metric name %q", ln+1, name)
			}
			switch typ {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					t.Fatalf("line %d: counter %q does not end in _total", ln+1, name)
				}
			case "histogram":
				// Histograms observe durations, in seconds.
				if !strings.HasSuffix(name, "_seconds") {
					t.Fatalf("line %d: histogram %q does not end in _seconds", ln+1, name)
				}
			case "gauge":
				if strings.HasSuffix(name, "_total") {
					t.Fatalf("line %d: gauge %q ends in _total", ln+1, name)
				}
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		name := nameOf(line)
		famName := base(name)
		f := fams[famName]
		if f == nil || f.typ == "" || !f.help {
			t.Fatalf("line %d: sample %q before HELP+TYPE of %q", ln+1, line, famName)
		}
		f.samples++
		rest := line[len(name):]
		var labels string
		if strings.HasPrefix(rest, "{") {
			end := strings.LastIndex(rest, "}")
			if end < 0 {
				t.Fatalf("line %d: unterminated labels %q", ln+1, line)
			}
			labels, rest = rest[1:end], rest[end+1:]
		}
		for _, pair := range splitLabelPairs(labels) {
			if !labelPairRe.MatchString(pair) {
				t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
			}
		}
		valueStr := strings.TrimSpace(rest)
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil && valueStr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valueStr, err)
		}
		if f.typ == "counter" && value < 0 {
			t.Fatalf("line %d: negative counter %q", ln+1, line)
		}
		if f.typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			// Track cumulative monotonicity per series (labels minus le);
			// a series' buckets appear contiguously in the exposition.
			key := famName + "{" + strings.TrimPrefix(leRe.ReplaceAllString(labels, ""), ",") + "}"
			if strings.Contains(labels, `le="+Inf"`) {
				infSeen[key] = uint64(value)
				delete(lastCum, key) // series complete; next one restarts
			} else {
				if prev, ok := lastCum[key]; ok && uint64(value) < prev {
					t.Fatalf("line %d: non-monotonic buckets for %s", ln+1, key)
				}
				lastCum[key] = uint64(value)
			}
		}
		if f.typ == "histogram" && strings.HasSuffix(name, "_count") {
			count[famName+"{"+labels+"}"] = uint64(value)
		}
	}
	for key, inf := range infSeen {
		if c, ok := count[key]; ok && c != inf {
			t.Fatalf("series %s: +Inf bucket %d != count %d", key, inf, c)
		}
	}
	if len(fams) == 0 {
		t.Fatal("exposition contained no families")
	}
	out := make(map[string]string, len(fams))
	for name, f := range fams {
		out[name] = f.typ
	}
	return out
}

// splitLabelPairs splits `a="x",b="y"` at commas outside quotes.
func splitLabelPairs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	var start int
	inQ := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQ {
				i++
			}
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
