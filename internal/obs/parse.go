package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set,
// and the sample value. Histogram series appear under their rendered
// names (name_bucket with an le label, name_sum, name_count).
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for the named label ("" if absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// ParseText parses a Prometheus text exposition (the format WriteText
// emits, or WriteOpenMetrics with its exemplars) into samples, skipping
// comment and blank lines. It understands the subset this package
// produces — plain `name{labels} value` lines with escaped label
// values — which is also the subset cmd/loadgen needs to diff two
// scrapes. It reads back every label value the registry renders.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows to the longest line, up to 1 MiB.
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		labels, after, err := parseLabels(rest[i+1:])
		if err != nil {
			return s, err
		}
		s.Labels, rest = labels, after
	} else if i := strings.IndexAny(rest, " \t"); i > 0 {
		s.Name, rest = rest[:i], rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	// The value is the first field. OpenMetrics bucket lines may carry
	// an exemplar annotation after it (` # {trace_id="..."} value ts`),
	// so ParseText accepts either exposition; anything else after the
	// value is malformed.
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 1 && fields[1] != "#" {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses a label set that starts after its opening brace
// and returns the labels and the rest of the line after the closing
// brace. Values are read quote to quote, honouring backslash escapes,
// so a value may hold any byte — braces and ` # ` included.
func parseLabels(s string) (map[string]string, string, error) {
	out := make(map[string]string)
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil, "", errors.New("unterminated label set")
		}
		if s[0] == '}' {
			return out, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		i := eq + 2
		var val strings.Builder
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label value in %q", s)
		}
		out[name] = val.String()
		s = strings.TrimSpace(s[i+1:])
		if s != "" && s[0] == ',' {
			s = s[1:]
		}
	}
}

// HistogramDelta aggregates, across two scrapes, every _bucket series
// of the named histogram family (summing over all non-le labels) and
// returns the bucket deltas: upper bounds sorted ascending (ending in
// +Inf) and the cumulative count each gained between the scrapes.
// Returns total = 0 when the family is absent or nothing was observed
// in between.
func HistogramDelta(before, after []Sample, name string) (bounds []float64, cum []uint64, total uint64) {
	b := bucketTotals(before, name)
	a := bucketTotals(after, name)
	if len(a) == 0 {
		return nil, nil, 0
	}
	for le := range a {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cum = make([]uint64, len(bounds))
	for i, le := range bounds {
		d := a[le] - b[le] // cumulative counts only grow
		if d > 0 {
			cum[i] = uint64(d)
		}
	}
	if len(cum) > 0 {
		total = cum[len(cum)-1]
	}
	return bounds, cum, total
}

func bucketTotals(samples []Sample, name string) map[float64]float64 {
	out := make(map[float64]float64)
	bucket := name + "_bucket"
	for _, s := range samples {
		if s.Name != bucket {
			continue
		}
		le, err := parseValue(s.Label("le"))
		if err != nil {
			continue
		}
		out[le] += s.Value
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q <= 1) from cumulative
// bucket counts as returned by HistogramDelta, linearly interpolating
// within the containing bucket. Observations in the +Inf bucket clamp
// to the last finite bound. Returns NaN when the histogram is empty.
func Quantile(bounds []float64, cum []uint64, q float64) float64 {
	if len(bounds) == 0 || len(cum) != len(bounds) || cum[len(cum)-1] == 0 {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) >= rank {
			upper := bounds[i]
			if math.IsInf(upper, 1) {
				// Open-ended bucket: the best honest answer is the last
				// finite bound.
				if i == 0 {
					return math.NaN()
				}
				return bounds[i-1]
			}
			lower := 0.0
			prev := uint64(0)
			if i > 0 {
				lower = bounds[i-1]
				prev = cum[i-1]
			}
			width := float64(c - prev)
			if width == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-float64(prev))/width
		}
	}
	return bounds[len(bounds)-1]
}
