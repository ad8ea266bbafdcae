package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// promPage is a parsed /metrics page (or the difference of two).
type promPage []series

// parseProm parses Prometheus text format 0.0.4 as xtqd renders it:
// comment lines, then `name{label="value",...} number` samples. Label
// values may contain escaped quotes and backslashes.
func parseProm(r io.Reader) (promPage, error) {
	var page promPage
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, err
		}
		page = append(page, s)
	}
	return page, sc.Err()
}

func parseSeries(line string) (series, error) {
	s := series{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	} else {
		s.name, rest = rest[:i], rest[i:]
	}
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("prom: bad labels in %q", line)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				if rest[i] == '\\' && i+1 < len(rest) {
					i++
					if rest[i] == 'n' {
						val.WriteByte('\n')
					} else {
						val.WriteByte(rest[i])
					}
					continue
				}
				if rest[i] == '"' {
					rest, closed = rest[i+1:], true
					break
				}
				val.WriteByte(rest[i])
			}
			if !closed {
				return s, fmt.Errorf("prom: unterminated label value in %q", line)
			}
			s.labels[name] = val.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = strings.TrimPrefix(rest, "}")
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

func (s series) key() string {
	names := make([]string, 0, len(s.labels))
	for k := range s.labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range names {
		fmt.Fprintf(&b, "|%s=%s", k, s.labels[k])
	}
	return b.String()
}

// delta returns after − before per series; a series absent from before
// counts from zero (xtqd registers label values on first use).
func (after promPage) delta(before promPage) promPage {
	base := make(map[string]float64, len(before))
	for _, s := range before {
		base[s.key()] = s.value
	}
	out := make(promPage, len(after))
	for i, s := range after {
		out[i] = series{name: s.name, labels: s.labels, value: s.value - base[s.key()]}
	}
	return out
}

func (s series) matches(name string, want []string) bool {
	if s.name != name {
		return false
	}
	for _, kv := range want {
		k, v, _ := strings.Cut(kv, "=")
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of the given name whose labels include all of
// want (each "label=value").
func (p promPage) sum(name string, want ...string) float64 {
	total := 0.0
	for _, s := range p {
		if s.matches(name, want) {
			total += s.value
		}
	}
	return total
}

// histQuantile estimates the q-quantile, in seconds, of histogram name
// (series name_bucket with cumulative le buckets) restricted to want,
// interpolating linearly inside the bucket the rank falls in. It
// returns 0 for an empty histogram.
func (p promPage) histQuantile(name string, q float64, want ...string) float64 {
	type bucket struct{ le, count float64 }
	byLE := map[float64]float64{}
	for _, s := range p {
		if !s.matches(name+"_bucket", want) {
			continue
		}
		le := math.Inf(1)
		if s.labels["le"] != "+Inf" {
			v, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			le = v
		}
		byLE[le] += s.value
	}
	buckets := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		buckets = append(buckets, bucket{le, c})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].count == 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].count
	prevLE, prevCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLE, prevCount = b.le, b.count
	}
	return prevLE
}

// ratio is num/(num+den), or 0 when both are zero.
func ratio(num, den float64) float64 {
	if num+den == 0 {
		return 0
	}
	return num / (num + den)
}
