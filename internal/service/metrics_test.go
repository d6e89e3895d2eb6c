package service

import (
	"bytes"
	"strings"
	"testing"

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
