package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"seedblast/internal/index"
)

// smokeConfig shrinks banks, windows and repetitions so that all seven
// workloads, both passes, run in a few seconds.
func smokeConfig(seed int64) config {
	return config{
		seed: seed, window: 200 * time.Millisecond, untraced: true, traced: true,
		sizes: smokeSizes, clients: min(2, runtime.GOMAXPROCS(0)), setupReps: 1, minRounds: 1, minJobs: 3,
	}
}

// declaration is BENCHMARK.json as the test reads it.
type declaration struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// TestDeclarationMatchesTables pins BENCHMARK.json to the tables the
// program measures and compares with.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclaration(t)
	if !reflect.DeepEqual(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, metrics.go has %+v", d.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and metrics.go differ:\n%v\n%v", names(d.PerLayer), names(perLayer))
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if !grammar.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
	for _, name := range append(append(names(endToEnd), names(perLayer)...), tailLatency.Name) {
		if !grammar.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
}

// TestSmoke runs every workload at smoke scale and checks what it
// emits against what is declared, that the results are correct, and
// that inputs follow the seed.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	decl := readDeclaration(t)
	declared := append(names(decl.EndToEnd), names(decl.PerLayer)...)
	digests := map[string]string{}
	for _, w := range workloads {
		res, err := runWorkload(ctx, smokeConfig(1), w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed, problems: %v", w.name, res.Failed, res.Attempted, res.Problems)
		}
		digests[w.name] = res.Digest

		// Measured: every end-to-end metric (p90 only past 100 ops) and
		// exactly the per-layer metrics of layers w exercises.
		want := names(endToEnd)
		if _, ok := res.EndToEnd[tailLatency.Name]; ok {
			want = append(want, tailLatency.Name)
		}
		if got := sortedKeys(res.EndToEnd); !sameSet(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", w.name, got, want)
		}
		want = nil
		for _, d := range perLayer {
			if measuredOn(d.Name, w) {
				want = append(want, d.Name)
			}
		}
		if got := sortedKeys(res.PerLayer); !sameSet(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", w.name, got, want)
		}
		for name, s := range res.EndToEnd {
			if s.Value <= 0 || s.N == 0 {
				t.Errorf("%s: %s = %v over %d samples", w.name, name, s.Value, s.N)
			}
		}
		// The driver's line: every declared metric, nothing else.
		if got := sortedKeys(driverLine(res).Metrics); !sameSet(got, declared) {
			t.Errorf("%s: result line carries %v, BENCHMARK.json declares %v", w.name, got, declared)
		}
	}

	// Same seed, same digests; another seed, other inputs and digests.
	quick := smokeConfig(1)
	quick.traced, quick.window = false, 20*time.Millisecond
	for _, w := range workloads {
		again, err := runWorkload(ctx, quick, w)
		if err != nil {
			t.Fatalf("%s again: %v", w.name, err)
		}
		if again.Digest != digests[w.name] {
			t.Errorf("%s: seed 1 gave digest %s, then %s", w.name, digests[w.name], again.Digest)
		}
		a, b := w.bank(1, smokeSizes), w.bank(2, smokeSizes)
		if index.BankFingerprint(a.subjects) == index.BankFingerprint(b.subjects) ||
			index.BankFingerprint(a.queries) == index.BankFingerprint(b.queries) {
			t.Errorf("%s: seeds 1 and 2 generate the same bank", w.name)
		}
	}
	quick.seed = 2
	other, err := runWorkload(ctx, quick, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if !other.correct() || other.Digest == digests[workloads[0].name] {
		t.Errorf("%s with seed 2: correct=%v, digest %s (seed 1: %s)", workloads[0].name, other.correct(), other.Digest, digests[workloads[0].name])
	}
}

// sameSet compares two name lists regardless of order.
func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestCompare feeds -compare a synthetic pair: identical files pass, a
// 30% slower median (bound 20%) is a regression and a non-zero exit.
func TestCompare(t *testing.T) {
	base := resultsFile{Schema: schemaResults, Seed: 1, Workloads: []*workloadResult{{
		Name: "serve_hot", Attempted: 1000, Digest: "d",
		EndToEnd: map[string]sample{
			"setup_s":   {Value: 0.01, Unit: "s", N: 5},
			"op_ms_p50": {Value: 3, Unit: "ms", N: 1000},
			"ops_per_s": {Value: 600, Unit: "1/s", N: 1000},
		},
	}}}
	dir := t.TempDir()
	write := func(name string, f resultsFile) string {
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", base)
	slow := base
	slow.Workloads = []*workloadResult{{
		Name: "serve_hot", Attempted: 1000, Digest: "d",
		EndToEnd: map[string]sample{
			"setup_s":   {Value: 0.01, Unit: "s", N: 5},
			"op_ms_p50": {Value: 3.9, Unit: "ms", N: 1000},
			"ops_per_s": {Value: 600, Unit: "1/s", N: 1000},
		},
	}}
	b := write("b.json", slow)

	var out, errs bytes.Buffer
	if code := run([]string{"-compare", a, a}, &out, &errs); code != 0 {
		t.Errorf("identical files: exit %d\n%s%s", code, out.String(), errs.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, b}, &out, &errs); code != 1 {
		t.Errorf("30%% slower op_ms_p50: exit %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	var verdicts []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "serve_hot" {
			verdicts = append(verdicts, f[1]+"="+f[len(f)-1])
		}
	}
	want := []string{"setup_s=ok", "op_ms_p50=regressed", "ops_per_s=ok", "fail_ratio=ok", "digest=ok"}
	if !reflect.DeepEqual(verdicts, want) {
		t.Errorf("verdicts %v, want %v\n%s", verdicts, want, out.String())
	}
}
