// Package telemetrytest parses the Prometheus text exposition that
// telemetry.Registry renders, strictly, so tests can assert that every
// daemon's /metrics page stays machine-consumable and read values off
// it. It is written apart from the registry's renderer (its own name
// grammar and series signatures) so that the two check each other, and
// no program links it.
package telemetrytest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"seedblast/internal/telemetry"
)

// Label is a metric label, as the registry renders it.
type Label = telemetry.Label

// Sample is one parsed series: a metric name, its sorted label set and
// the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label ("" when absent).
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    telemetry.MetricType // "untyped" when no TYPE line preceded the samples
	Samples []Sample
}

// Families is a parsed exposition, keyed by family name.
type Families map[string]*Family

// Value returns the first sample named name matching every given
// label (extra labels on the sample are allowed, so histogram _bucket
// series can be selected by le). Histogram _bucket/_sum/_count sample
// names resolve into their base family. ok is false when no sample
// matches.
func (fs Families) Value(name string, labels ...Label) (v float64, ok bool) {
	f := fs[name]
	if f == nil {
		// _bucket/_sum/_count live under the histogram's base family.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && fs[base] != nil {
				f = fs[base]
				break
			}
		}
	}
	if f == nil {
		return 0, false
	}
outer:
	for i := range f.Samples {
		s := &f.Samples[i]
		if s.Name != name {
			continue
		}
		for _, want := range labels {
			if s.Label(want.Name) != want.Value {
				continue outer
			}
		}
		return s.Value, true
	}
	return 0, false
}

// ParseText parses (and validates) the Prometheus text exposition
// format, version 0.0.4. It is deliberately strict:
//
//   - metric and label names must match the grammar;
//   - HELP/TYPE lines must precede their family's samples and appear
//     at most once per family;
//   - sample values must parse as Go floats (+Inf, -Inf, NaN allowed);
//   - histogram families must carry _bucket series with le labels,
//     cumulative bucket counts must be monotonically non-decreasing in
//     le order, must end at le="+Inf", and the +Inf count must equal
//     the family's _count sample;
//   - duplicate series (same name and label set) are rejected.
func ParseText(r io.Reader) (Families, error) {
	fams := make(Families)
	var order []string
	seen := make(map[string]bool) // name+labels duplicate detection
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	get := func(name string) *Family {
		f := fams[name]
		if f == nil {
			f = &Family{Name: name, Type: "untyped"}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	typed := make(map[string]bool)
	helped := make(map[string]bool)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if kind == "" {
				continue // plain comment
			}
			f := get(name)
			switch kind {
			case "HELP":
				if helped[name] {
					return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: HELP for %s after its samples", lineNo, name)
				}
				helped[name] = true
				f.Help = rest
			case "TYPE":
				if typed[name] {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				switch telemetry.MetricType(rest) {
				case telemetry.TypeCounter, telemetry.TypeGauge, telemetry.TypeHistogram, "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, rest, name)
				}
				typed[name] = true
				f.Type = telemetry.MetricType(rest)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		sig := s.Name + signature(s.Labels)
		if seen[sig] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, sig)
		}
		seen[sig] = true
		// A histogram's _bucket/_sum/_count samples belong to the base
		// family its TYPE line declared.
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suffix)
			if base != s.Name && typed[base] && fams[base].Type == telemetry.TypeHistogram {
				fam = base
				break
			}
		}
		f := get(fam)
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		f := fams[name]
		if f.Type == telemetry.TypeHistogram {
			if err := validateHistogram(f); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", name, err)
			}
		}
	}
	return fams, nil
}

// validateHistogram checks one histogram family's structural
// invariants per labeled sub-series.
func validateHistogram(f *Family) error {
	type series struct {
		buckets []Sample
		sum     bool
		count   float64
		hasCnt  bool
	}
	// Group by the label signature minus le.
	bySig := map[string]*series{}
	sigOf := func(s *Sample) string {
		var ls []Label
		for _, l := range s.Labels {
			if l.Name != "le" {
				ls = append(ls, l)
			}
		}
		return signature(ls)
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		sig := sigOf(s)
		sr := bySig[sig]
		if sr == nil {
			sr = &series{}
			bySig[sig] = sr
		}
		switch {
		case s.Name == f.Name+"_bucket":
			sr.buckets = append(sr.buckets, *s)
		case s.Name == f.Name+"_sum":
			sr.sum = true
		case s.Name == f.Name+"_count":
			sr.hasCnt = true
			sr.count = s.Value
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for sig, sr := range bySig {
		if len(sr.buckets) == 0 {
			return fmt.Errorf("series %q has no _bucket samples", sig)
		}
		if !sr.sum || !sr.hasCnt {
			return fmt.Errorf("series %q missing _sum or _count", sig)
		}
		type bb struct {
			le  float64
			cum float64
		}
		bs := make([]bb, 0, len(sr.buckets))
		for i := range sr.buckets {
			leStr := sr.buckets[i].Label("le")
			if leStr == "" {
				return fmt.Errorf("series %q: _bucket without le label", sig)
			}
			le, err := parseFloat(leStr)
			if err != nil {
				return fmt.Errorf("series %q: bad le %q", sig, leStr)
			}
			bs = append(bs, bb{le: le, cum: sr.buckets[i].Value})
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("series %q: buckets do not end at le=\"+Inf\"", sig)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].cum < bs[i-1].cum {
				return fmt.Errorf("series %q: bucket counts not monotonic at le=%g (%g < %g)",
					sig, bs[i].le, bs[i].cum, bs[i-1].cum)
			}
		}
		if last.cum != sr.count {
			return fmt.Errorf("series %q: +Inf bucket %g != _count %g", sig, last.cum, sr.count)
		}
	}
	return nil
}

// parseComment splits a # line: returns kind "HELP"/"TYPE" with the
// metric name and remainder, or kind "" for plain comments.
func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	var k string
	switch {
	case strings.HasPrefix(body, "HELP "):
		k = "HELP"
	case strings.HasPrefix(body, "TYPE "):
		k = "TYPE"
	default:
		return "", "", "", nil
	}
	body = strings.TrimPrefix(body, k+" ")
	i := strings.IndexByte(body, ' ')
	if i < 0 {
		if k == "HELP" {
			// HELP with empty docstring is legal.
			if !validName(body) {
				return "", "", "", fmt.Errorf("invalid metric name %q in %s line", body, k)
			}
			return k, body, "", nil
		}
		return "", "", "", fmt.Errorf("malformed %s line", k)
	}
	name = body[:i]
	if !validName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q in %s line", name, k)
	}
	return k, name, body[i+1:], nil
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	// Name runs to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		endBlock := strings.LastIndexByte(rest, '}')
		if endBlock < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		var err error
		s.Labels, err = parseLabels(rest[1:endBlock])
		if err != nil {
			return s, err
		}
		rest = rest[endBlock+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp: %v", line, err)
		}
	}
	s.Value = v
	return s, nil
}

// parseLabels parses the inside of a {…} block.
func parseLabels(body string) ([]Label, error) {
	var out []Label
	i := 0
	for i < len(body) {
		// name
		j := strings.IndexByte(body[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label block %q: missing '='", body)
		}
		name := strings.TrimSpace(body[i : i+j])
		if !validLabelName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		i += j + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(body) {
				return nil, fmt.Errorf("label %s: unterminated value", name)
			}
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch body[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: bad escape \\%c", name, body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		out = append(out, Label{Name: name, Value: b.String()})
		if i < len(body) {
			if body[i] != ',' {
				return nil, fmt.Errorf("label block %q: want ',' after value", body)
			}
			i++
			for i < len(body) && (body[i] == ' ' || body[i] == '\t') {
				i++
			}
		}
	}
	return out, nil
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func validName(s string) bool      { return metricNameRE.MatchString(s) }
func validLabelName(s string) bool { return labelNameRE.MatchString(s) }

// signature is a label set's identity within one family.
func signature(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		fmt.Fprintf(&b, "{%s=%q}", l.Name, l.Value)
	}
	return b.String()
}

// parseFloat parses a sample value, accepting the exposition spellings
// of the special values.
func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
