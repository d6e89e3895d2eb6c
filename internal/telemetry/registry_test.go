package telemetry

import (
	"slices"
	"strings"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests seen.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	g := r.Gauge("test_running", "Currently running.", L("mode", "bank"))
	g.Set(2)
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
	if v := c.bits.load(); v != 3 {
		t.Errorf("counter value = %g, want 3", v)
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
	if n := h.total.Load(); n != 5 {
		t.Errorf("count = %d, want 5", n)
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

// The exposition is sorted, so registration order never shows: the
// same instruments registered in declaration order, in reverse, and
// from a map range render byte for byte the same page.
func TestExpositionIgnoresRegistrationOrder(t *testing.T) {
	type series struct{ name, stage string }
	all := []series{
		{"seed_jobs_total", ""},
		{"seed_stage_seconds", "step3"},
		{"seed_stage_seconds", "step1"},
		{"seed_queue_depth", ""},
		{"seed_stage_seconds", "step2"},
		{"seed_alignments_total", ""},
	}
	render := func(order []series) string {
		r := NewRegistry()
		for _, s := range order {
			switch {
			case s.stage != "":
				r.Histogram(s.name, "Stage wall time.", []float64{0.1, 1}, L("stage", s.stage)).Observe(float64(len(s.stage)))
			case strings.HasSuffix(s.name, "_total"):
				r.Counter(s.name, "Count of "+s.name+".").Add(float64(len(s.name)))
			default:
				r.Gauge(s.name, "").Set(7)
			}
		}
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	want := render(all)
	reversed := slices.Clone(all)
	slices.Reverse(reversed)
	byMap := make(map[series]bool)
	for _, s := range all {
		byMap[s] = true
	}
	var fromMap []series
	for s := range byMap {
		fromMap = append(fromMap, s)
	}
	for name, order := range map[string][]series{"reversed": reversed, "map range": fromMap} {
		if got := render(order); got != want {
			t.Errorf("%s registration renders a different page:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
	if i, j := strings.Index(want, "seed_alignments_total"), strings.Index(want, "seed_stage_seconds"); i < 0 || j < i {
		t.Errorf("families not sorted by name:\n%s", want)
	}
	if i, j := strings.Index(want, `stage="step1"`), strings.Index(want, `stage="step3"`); i < 0 || j < i {
		t.Errorf("series not sorted by label signature:\n%s", want)
	}
}
