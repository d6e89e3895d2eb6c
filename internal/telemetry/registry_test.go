package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests seen.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	g := r.Gauge("test_running", "Currently running.", L("mode", "bank"))
	g.Set(3)
	g.Add(-1)
	r.Func("test_cache_entries", "Cache size.", TypeGauge, func() float64 { return 7 })

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# HELP test_requests_total Requests seen.",
		"# TYPE test_requests_total counter",
		"test_requests_total 3",
		"# TYPE test_running gauge",
		`test_running{mode="bank"} 2`,
		"test_cache_entries 7",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}
	if c.Value() != 3 {
		t.Errorf("counter value = %g, want 3", c.Value())
	}
}

func TestSameNameSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	if l1, l2 := r.Counter("x_total", "", L("k", "1")), r.Counter("x_total", "", L("k", "2")); l1 == l2 {
		t.Error("distinct label sets returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a name under a different type did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	r.Counter("0bad-name", "")
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "Latency.", []float64{0.1, 1, 10}, L("stage", "step2"))
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{stage="step2",le="0.1"} 1`,
		`test_seconds_bucket{stage="step2",le="1"} 3`,
		`test_seconds_bucket{stage="step2",le="10"} 4`,
		`test_seconds_bucket{stage="step2",le="+Inf"} 5`,
		`test_seconds_sum{stage="step2"} 56.05`,
		`test_seconds_count{stage="step2"} 5`,
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

// TestExpositionParses pins the registry and the parser against each
// other: everything the registry writes must pass the strict grammar.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "With \\ and \"quotes\" and\nnewline.", L("q", "x\"y\\z\nw")).Inc()
	r.Gauge("b", "").Set(math.Inf(1))
	h := r.Histogram("c_seconds", "h", DurationBuckets)
	h.Observe(0.002)
	h.Observe(1000) // past the last bound: +Inf only
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("registry output does not parse: %v\n%s", err, b.String())
	}
	if v, ok := fams.Value("a_total", L("q", "x\"y\\z\nw")); !ok || v != 1 {
		t.Errorf("a_total = %g, %v; want 1, true", v, ok)
	}
	if v, ok := fams.Value("b"); !ok || !math.IsInf(v, 1) {
		t.Errorf("b = %g, %v; want +Inf, true", v, ok)
	}
	if v, ok := fams.Value("c_seconds_count"); !ok || v != 2 {
		t.Errorf("c_seconds_count = %g, %v; want 2, true", v, ok)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// and checks the totals are exact — the -race run of this test is the
// "concurrent observes never corrupt totals" gate.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "", []float64{0.5, 1, 2})
	const (
		workers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(w%4) * 0.6)
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(workers*perW); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(strings.NewReader(b.String())); err != nil {
		t.Errorf("concurrent-write exposition does not parse: %v", err)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":          "0bad 1\n",
		"bad value":         "a_total one\n",
		"duplicate series":  "a_total 1\na_total 2\n",
		"unknown type":      "# TYPE a_total matrix\n",
		"help after sample": "a_total 1\n# HELP a_total late\n",
		"non-monotonic histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"histogram without +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"histogram count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
		"histogram missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 5\n",
	}
	for name, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted %q", name, in)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if len(DurationBuckets) != 21 || DurationBuckets[0] != 100e-6 {
		t.Errorf("DurationBuckets = %v", DurationBuckets)
	}
}

// An included registry's families render after the host's own, live,
// and the whole page still parses.
func TestIncludeRendersAfterOwnFamilies(t *testing.T) {
	host, part := NewRegistry(), NewRegistry()
	host.Counter("host_requests_total", "Host requests.").Inc()
	host.Include(part)
	c := part.Counter("part_volumes_total", "Part volumes.", L("worker", "a"))
	c.Add(2)

	var b strings.Builder
	if _, err := host.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	h, p := strings.Index(out, "host_requests_total 1"), strings.Index(out, `part_volumes_total{worker="a"} 2`)
	if h < 0 || p < 0 || p < h {
		t.Fatalf("want the host's family, then the included one:\n%s", out)
	}
	if _, err := ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition with an included registry does not parse: %v\n%s", err, out)
	}
}
