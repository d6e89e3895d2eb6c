package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareResults implements -compare A B. Each side is one result file
// or a comma-separated list of repeated runs of one commit. For every
// workload and end-to-end metric it prints both medians, B/A, the
// metric's bound and a verdict:
//
//	ok          B is not worse than A by more than the bound
//	regressed   it is
//	unresolved  the runs of one side spread wider (first to third
//	            quartile, over the median) than the bound and the sides
//	            overlap, or one side lacks the value
//
// A side given as a single file has no spread, so its verdicts are ok
// or regressed. More failed ops per attempt than A, or a different
// result digest for the same seed, is a regression too. The exit
// status is 1 when anything regressed.
func compareResults(aList, bList string, stdout, stderr io.Writer) int {
	var sides [2][]*resultsFile
	for i, list := range []string{aList, bList} {
		runs, err := loadRuns(list)
		if err != nil {
			fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
			return 2
		}
		sides[i] = runs
	}
	return compareRuns(sides[0], sides[1], stdout)
}

func loadRuns(list string) ([]*resultsFile, error) {
	var runs []*resultsFile
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f := &resultsFile{}
		if err := json.Unmarshal(raw, f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Schema != schemaResults {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaResults)
		}
		runs = append(runs, f)
	}
	return runs, nil
}

// side is one commit's runs of one workload.
type side struct {
	values            map[string][]float64 // end-to-end metric -> one value per run
	attempted, failed int
	digests           map[string]bool // "seed/digest" of every run
}

func collect(runs []*resultsFile) map[string]*side {
	out := make(map[string]*side)
	for _, f := range runs {
		for _, w := range f.Workloads {
			s := out[w.Name]
			if s == nil {
				s = &side{values: make(map[string][]float64), digests: make(map[string]bool)}
				out[w.Name] = s
			}
			for name, m := range w.EndToEnd {
				s.values[name] = append(s.values[name], m.Value)
			}
			s.attempted += w.Attempted
			s.failed += w.Failed
			s.digests[fmt.Sprintf("%d/%s", f.Seed, w.Digest)] = true
		}
	}
	return out
}

func compareRuns(a, b []*resultsFile, stdout io.Writer) int {
	sa, sb := collect(a), collect(b)
	regressed := 0
	verdict := func(v string) string {
		if v == "regressed" {
			regressed++
		}
		return v
	}
	fmt.Fprintf(stdout, "%-16s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, w := range workloads {
		x, y := sa[w.name], sb[w.name]
		if x == nil && y == nil {
			continue
		}
		if x == nil || y == nil {
			fmt.Fprintf(stdout, "%-16s %-12s %14s %14s %8s %6s  unresolved (workload missing on one side)\n", w.name, "*", "-", "-", "-", "-")
			continue
		}
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], tailLatency) {
			va, vb := x.values[d.Name], y.values[d.Name]
			if d == tailLatency && len(va) == 0 && len(vb) == 0 {
				continue // too few ops for a p90 on either side
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-16s %-12s %14s %14s %8s %6.2f  unresolved (missing on one side)\n", w.name, d.Name, "-", "-", "-", d.Bound)
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			fmt.Fprintf(stdout, "%-16s %-12s %14.6g %14.6g %8.4f %6.2f  %s\n",
				w.name, d.Name, ma, mb, ratio(mb, ma), d.Bound, verdict(judge(d, va, vb)))
		}
		ra, rb := ratio(float64(x.failed), float64(x.attempted)), ratio(float64(y.failed), float64(y.attempted))
		v := "ok"
		if rb > ra {
			v = "regressed"
		}
		fmt.Fprintf(stdout, "%-16s %-12s %14.6g %14.6g %8s %6.2f  %s\n", w.name, "fail_ratio", ra, rb, "-", 0.0, verdict(v))
		// The same seed must give the same result on both sides.
		v = "ok"
		for _, key := range sortedKeys(y.digests) {
			seed, _, _ := strings.Cut(key, "/")
			for _, other := range sortedKeys(x.digests) {
				if strings.HasPrefix(other, seed+"/") && other != key {
					v = "regressed"
				}
			}
		}
		fmt.Fprintf(stdout, "%-16s %-12s %14s %14s %8s %6s  %s\n", w.name, "digest", "-", "-", "-", "-", verdict(v))
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

// judge gives the verdict for one metric from each side's runs.
func judge(d metricDef, va, vb []float64) string {
	ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	if spread(va) > d.Bound || spread(vb) > d.Bound {
		if allBetter(d, va, vb) {
			return "ok"
		}
		return "unresolved"
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "ok"
}

// spread is the distance between the first and third quartile over the
// median, with the quartiles Python's statistics.quantiles(n=4) gives;
// 0 for a single run.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), quantile(s, 0.5))
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(d metricDef, va, vb []float64) bool {
	for _, y := range vb {
		for _, x := range va {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}
