package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"seedblast/internal/bank"
	"seedblast/internal/core"
	"seedblast/internal/seed"
	"seedblast/internal/telemetry"
	"seedblast/internal/telemetry/telemetrytest"
)

// workerFamilies is the seedservd_ metric surface a worker serves on
// /metrics, with each family's type — the contract dashboards key on.
// Histograms are listed by family name, not their _bucket/_sum/_count
// series.
var workerFamilies = map[string]telemetry.MetricType{
	"seedservd_requests_submitted_total":     telemetry.TypeCounter,
	"seedservd_requests_completed_total":     telemetry.TypeCounter,
	"seedservd_requests_failed_total":        telemetry.TypeCounter,
	"seedservd_requests_running":             telemetry.TypeGauge,
	"seedservd_requests_waiting":             telemetry.TypeGauge,
	"seedservd_stage_busy_seconds_total":     telemetry.TypeCounter,
	"seedservd_engine_wall_seconds_total":    telemetry.TypeCounter,
	"seedservd_alignments_total":             telemetry.TypeCounter,
	"seedservd_prefilter_kept_total":         telemetry.TypeCounter,
	"seedservd_prefilter_dropped_total":      telemetry.TypeCounter,
	"seedservd_prefilter_survivors":          telemetry.TypeHistogram,
	"seedservd_index_cache_hits_total":       telemetry.TypeCounter,
	"seedservd_index_cache_misses_total":     telemetry.TypeCounter,
	"seedservd_index_cache_evictions_total":  telemetry.TypeCounter,
	"seedservd_index_cache_disk_loads_total": telemetry.TypeCounter,
	"seedservd_index_cache_entries":          telemetry.TypeGauge,
	"seedservd_index_cache_hit_rate":         telemetry.TypeGauge,
	"seedservd_stage_seconds":                telemetry.TypeHistogram,
	"seedservd_request_seconds":              telemetry.TypeHistogram,
}

// TestWorkerFamiliesMatchServiceRegistry pins the worker's metric
// surface without a daemon: the families a freshly constructed service
// registers and workerFamilies must agree in both directions, so a
// family added, dropped, renamed or retyped without updating the list
// fails here. Invalid names and one name under two types cannot get
// this far: the registry panics on them at registration
// (TestInvalidNamePanics, TestSameNameSameInstance in telemetry).
func TestWorkerFamiliesMatchServiceRegistry(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	var buf bytes.Buffer
	if _, err := s.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetrytest.ParseText(&buf)
	if err != nil {
		t.Fatalf("service registry violates the exposition grammar: %v", err)
	}
	for name, typ := range workerFamilies {
		switch f := fams[name]; {
		case f == nil:
			t.Errorf("workerFamilies lists %s but the service does not register it", name)
		case f.Type != typ:
			t.Errorf("%s is a %s, workerFamilies says %s", name, f.Type, typ)
		}
	}
	for name := range fams {
		if _, listed := workerFamilies[name]; strings.HasPrefix(name, "seedservd_") && !listed {
			t.Errorf("service registers %s but workerFamilies does not list it", name)
		}
	}
}

// serviceMetrics is a service's registry as /metrics serves it, parsed
// under the strict exposition grammar.
type serviceMetrics struct {
	t    testing.TB
	fams telemetrytest.Families
}

func scrape(t testing.TB, s *Service) serviceMetrics {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetrytest.ParseText(&buf)
	if err != nil {
		t.Fatalf("service registry violates the exposition grammar: %v", err)
	}
	return serviceMetrics{t: t, fams: fams}
}

// value reads one seedservd_ sample; a missing one fails the test.
func (m serviceMetrics) value(name string, labels ...telemetry.Label) float64 {
	m.t.Helper()
	v, ok := m.fams.Value("seedservd_"+name, labels...)
	if !ok {
		m.t.Fatalf("seedservd_%s%v not exposed", name, labels)
	}
	return v
}

// cache reads the index-cache families back into a CacheStats.
func (m serviceMetrics) cache() CacheStats {
	m.t.Helper()
	return CacheStats{
		Hits:      int64(m.value("index_cache_hits_total")),
		Misses:    int64(m.value("index_cache_misses_total")),
		Evictions: int64(m.value("index_cache_evictions_total")),
		DiskLoads: int64(m.value("index_cache_disk_loads_total")),
		Entries:   int(m.value("index_cache_entries")),
	}
}

// brokenSeed is a seed model whose keys overflow its declared key
// space, so every index build under it fails.
type brokenSeed struct{ seed.Model }

func (brokenSeed) KeySpace() int { return 1 }
func (brokenSeed) Name() string  { return "broken" }

// TestMetricsAccountEveryJob runs a fixed mix of jobs — done, failed
// in its index build, and cancelled in admission — and reads the
// outcome off /metrics: every submitted job ended as completed or
// failed, the gauges drained, alignments_total is the done jobs'
// counts, and the engine's busy times reached the registry. The exact
// counts pin the families' values for this sequence.
func TestMetricsAccountEveryJob(t *testing.T) {
	b0, b1 := testWorkload(t, 8, 21)
	svc := New(Config{MaxConcurrent: 1})
	defer svc.Close()

	// The first job builds the subject index: its index span, and at
	// least that much index busy time, account for the cold build.
	indexBusy := func() float64 {
		return scrape(t, svc).value("stage_busy_seconds_total", telemetry.L("stage", "index"))
	}
	wantAlignments := 0
	for i, q := range []*bank.Bank{b0, b0, b1} {
		before := indexBusy()
		j, err := svc.Submit(&Request{Query: q, Subject: b1, Searcher: testSearcher(t)})
		if err != nil {
			t.Fatal(err)
		}
		if err := waitDone(j); err != nil {
			t.Fatal(err)
		}
		var build time.Duration
		for _, sp := range j.Trace().Spans() {
			if sp.Name == "index" {
				build += sp.Duration
			}
		}
		if cold := i == 0; cold != (build > 0) {
			t.Fatalf("job %d: index span %v, cold %v", i, build, cold)
		}
		if grew := indexBusy() - before; grew < build.Seconds() {
			t.Errorf("job %d: index busy grew %vs, its build took %v", i, grew, build)
		}
		wantAlignments += j.Snapshot().Result.Count
	}
	if wantAlignments == 0 {
		t.Fatal("workload produced no alignments")
	}

	broken := testSearcher(t, core.WithSeed(brokenSeed{seed.Default()}))
	if _, err := submitWait(svc, &Request{Query: b0, Subject: b1, Searcher: broken}); err == nil {
		t.Fatal("a job whose index build fails finished done")
	}

	// Hold the one admission slot so the next job waits there, then
	// cancel it.
	svc.sem <- struct{}{}
	j, err := svc.Submit(&Request{Query: b0, Subject: b1, Searcher: testSearcher(t)})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); scrape(t, svc).value("requests_waiting") != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the job never reached admission")
		}
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	if err := waitDone(j); !errors.Is(err, context.Canceled) {
		t.Fatalf("job cancelled in admission ended with %v", err)
	}
	<-svc.sem

	m := scrape(t, svc)
	for name, want := range map[string]float64{
		"requests_submitted_total":     5,
		"requests_completed_total":     3,
		"requests_failed_total":        2,
		"requests_running":             0,
		"requests_waiting":             0,
		"alignments_total":             float64(wantAlignments),
		"prefilter_kept_total":         0,
		"prefilter_dropped_total":      0,
		"index_cache_hits_total":       3,
		"index_cache_misses_total":     2,
		"index_cache_evictions_total":  0,
		"index_cache_disk_loads_total": 0,
		"index_cache_entries":          1,
		"request_seconds_count":        3,
	} {
		if got := m.value(name); got != want {
			t.Errorf("seedservd_%s = %v, want %v", name, got, want)
		}
	}
	if sub, done, failed := m.value("requests_submitted_total"), m.value("requests_completed_total"), m.value("requests_failed_total"); sub != done+failed {
		t.Errorf("submitted %v != completed %v + failed %v", sub, done, failed)
	}
	for _, stage := range []string{"index", "step2", "step3"} {
		if m.value("stage_busy_seconds_total", telemetry.L("stage", stage)) <= 0 {
			t.Errorf("stage %s busy time did not reach the registry", stage)
		}
	}
	if m.value("engine_wall_seconds_total") <= 0 {
		t.Error("engine wall time did not reach the registry")
	}
}
