package telemetry_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"seedblast/internal/telemetry"
	"seedblast/internal/telemetry/telemetrytest"
)

// TestExpositionParses pins the registry and the parser against each
// other: everything the registry writes must pass the strict grammar.
func TestExpositionParses(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("a_total", "With \\ and \"quotes\" and\nnewline.", telemetry.L("q", "x\"y\\z\nw")).Inc()
	r.Gauge("b", "").Set(math.Inf(1))
	h := r.Histogram("c_seconds", "h", telemetry.DurationBuckets)
	h.Observe(0.002)
	h.Observe(1000) // past the last bound: +Inf only
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetrytest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("registry output does not parse: %v\n%s", err, b.String())
	}
	if v, ok := fams.Value("a_total", telemetry.L("q", "x\"y\\z\nw")); !ok || v != 1 {
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
	r := telemetry.NewRegistry()
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
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetrytest.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("concurrent-write exposition does not parse: %v", err)
	}
	if got, ok := fams.Value("conc_seconds_count"); !ok || got != workers*perW {
		t.Errorf("count = %g, %v; want %d", got, ok, workers*perW)
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
		if _, err := telemetrytest.ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted %q", name, in)
		}
	}
}

// An included registry's families render after the host's own, live,
// and the whole page still parses.
func TestIncludeRendersAfterOwnFamilies(t *testing.T) {
	host, part := telemetry.NewRegistry(), telemetry.NewRegistry()
	host.Counter("host_requests_total", "Host requests.").Inc()
	host.Include(part)
	c := part.Counter("part_volumes_total", "Part volumes.", telemetry.L("worker", "a"))
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
	if _, err := telemetrytest.ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition with an included registry does not parse: %v\n%s", err, out)
	}
}
