package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seedblast/internal/service"
	"seedblast/internal/telemetry"
	"seedblast/internal/telemetry/telemetrytest"
)

// startClusterOver boots a coordinator daemon over the given workers
// and returns its base URL.
func startClusterOver(t testing.TB, volumes int, workers ...string) string {
	t.Helper()
	coord, err := New(Config{Workers: workers, Volumes: volumes})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(coord, ServerConfig{})
	srv := httptest.NewServer(NewHandler(server))
	t.Cleanup(func() { srv.Close(); server.Close() })
	return srv.URL
}

// scrapeMetrics fetches a daemon's /metrics page and parses it under
// the strict exposition grammar.
func scrapeMetrics(t testing.TB, base string) telemetrytest.Families {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: %d", base, resp.StatusCode)
	}
	fams, err := telemetrytest.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("%s/metrics violates the exposition grammar: %v", base, err)
	}
	return fams
}

func runWireJob(t *testing.T, cl *service.Client, query, subject []service.SequenceJSON) string {
	t.Helper()
	ctx := context.Background()
	id, err := cl.Submit(ctx, &service.JobRequestJSON{Query: query, Subject: subject, Options: wireOptions()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(service.JobDone) {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	return id
}

// TestMetricsExpositionParses is the golden grammar gate for both
// daemons: after real traffic, GET /metrics from a worker and from a
// coordinator must survive the strict Prometheus text parser, and the
// families the dashboards key on must be present with live values.
func TestMetricsExpositionParses(t *testing.T) {
	query, subject := wireWorkload(t, 6, 55)
	worker := startWorker(t)
	clusterURL := startClusterOver(t, 2, worker, startWorker(t))
	runWireJob(t, service.NewClient(clusterURL, service.ClientConfig{}), query, subject)

	wf := scrapeMetrics(t, worker)
	for _, name := range []string{
		"seedservd_requests_submitted_total",
		"seedservd_requests_completed_total",
		"seedservd_stage_busy_seconds_total",
		"seedservd_engine_wall_seconds_total",
	} {
		if v, ok := wf.Value(name); !ok || v <= 0 {
			t.Errorf("worker %s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	// The stage histograms are fed from job traces; the count suffix
	// resolving proves the full _bucket/_sum/_count triple parsed.
	if v, ok := wf.Value("seedservd_stage_seconds_count", telemetry.L("stage", "step2")); !ok || v <= 0 {
		t.Errorf("worker stage histogram empty: count=%v present=%v", v, ok)
	}

	cf := scrapeMetrics(t, clusterURL)
	for _, name := range []string{
		"seedclusterd_requests_total",
		"seedclusterd_requests_completed_total",
		"seedclusterd_last_volumes",
	} {
		if v, ok := cf.Value(name); !ok || v <= 0 {
			t.Errorf("coordinator %s = %v (present=%v), want > 0", name, v, ok)
		}
	}
	if v, ok := cf.Value("seedclusterd_volume_seconds_count", telemetry.L("worker", worker)); !ok || v <= 0 {
		t.Errorf("coordinator volume histogram for %s empty: count=%v present=%v", worker, v, ok)
	}
}

// coordinatorFamilies is the seedclusterd_ metric surface the
// coordinator serves on /metrics, with each family's type — the
// counterpart of the service package's workerFamilies.
var coordinatorFamilies = map[string]telemetry.MetricType{
	"seedclusterd_requests_total":               telemetry.TypeCounter,
	"seedclusterd_requests_completed_total":     telemetry.TypeCounter,
	"seedclusterd_requests_failed_total":        telemetry.TypeCounter,
	"seedclusterd_volume_retries_total":         telemetry.TypeCounter,
	"seedclusterd_last_volumes":                 telemetry.TypeGauge,
	"seedclusterd_last_volume_skew":             telemetry.TypeGauge,
	"seedclusterd_worker_volumes_total":         telemetry.TypeCounter,
	"seedclusterd_worker_failures_total":        telemetry.TypeCounter,
	"seedclusterd_worker_latency_seconds_total": telemetry.TypeCounter,
	"seedclusterd_volume_seconds":               telemetry.TypeHistogram,
}

// TestCoordinatorFamiliesMatchRegistry: the families a fresh
// coordinator registers and coordinatorFamilies agree in both
// directions, and every per-worker family carries one series per
// worker, so a family added, dropped, renamed or retyped without
// updating the list fails here.
func TestCoordinatorFamiliesMatchRegistry(t *testing.T) {
	workers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	coord, err := New(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	m := scrapeCoordinator(t, coord)
	for name, typ := range coordinatorFamilies {
		switch f := m.fams[name]; {
		case f == nil:
			t.Errorf("coordinatorFamilies lists %s but the coordinator does not register it", name)
		case f.Type != typ:
			t.Errorf("%s is a %s, coordinatorFamilies says %s", name, f.Type, typ)
		}
	}
	for name := range m.fams {
		if _, listed := coordinatorFamilies[name]; strings.HasPrefix(name, "seedclusterd_") && !listed {
			t.Errorf("coordinator registers %s but coordinatorFamilies does not list it", name)
		}
	}
	for _, u := range workers {
		for _, name := range []string{"worker_volumes_total", "worker_failures_total", "worker_latency_seconds_total", "volume_seconds_count"} {
			if v := m.worker(name, u); v != 0 {
				t.Errorf("fresh coordinator: seedclusterd_%s{worker=%q} = %g, want 0", name, u, v)
			}
		}
	}
}

// TestClusterTraceSpansWorkers is the distributed-tracing acceptance
// gate: one clustered job yields one trace, under the caller's own
// trace ID when supplied, containing the coordinator's stages plus
// engine spans grafted from at least two distinct workers — and the
// hop between them: each worker job's one NDJSON encode, and the
// coordinator's fetch of each volume.
func TestClusterTraceSpansWorkers(t *testing.T) {
	query, subject := wireWorkload(t, 6, 55)
	clusterURL := startClusterOver(t, 4, startWorker(t), startWorker(t))
	cl := service.NewClient(clusterURL, service.ClientConfig{})

	// A context-carried trace makes the client stamp the Seedblast-
	// Trace-Id header, so the job must come back under OUR ID.
	tr := telemetry.NewTrace(telemetry.NewTraceID())
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	id, err := cl.Submit(ctx, &service.JobRequestJSON{Query: query, Subject: subject, Options: wireOptions()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(service.JobDone) {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	if st.TraceID != tr.ID() {
		t.Errorf("status traceId = %q, want propagated %q", st.TraceID, tr.ID())
	}

	tj, err := cl.Trace(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if tj.TraceID != tr.ID() {
		t.Errorf("trace id = %q, want propagated %q", tj.TraceID, tr.ID())
	}

	byName := map[string]int{}
	workersSeen := map[string]bool{}
	enginesGrafted := map[string]bool{}
	encodes, fetches := map[string]bool{}, map[string]bool{}
	var request *telemetry.Span
	spans := telemetry.SpansFromJSON(tj.Spans)
	for i, sp := range tj.Spans {
		byName[sp.Name]++
		if sp.Name == "request" && sp.Attrs["worker"] == "" {
			if request != nil {
				t.Errorf("two coordinator request spans")
			}
			request = &spans[i]
		}
		switch sp.Name {
		case "encode":
			encodes[sp.Attrs["volume"]] = true
		case "fetch":
			fetches[sp.Attrs["volume"]] = true
		}
		if w := sp.Attrs["worker"]; w != "" {
			workersSeen[w] = true
			if sp.Name == "step1" || sp.Name == "step2" || sp.Name == "step3" {
				enginesGrafted[w] = true
			}
		}
	}
	for _, stage := range []string{"partition", "scatter", "gather"} {
		if byName[stage] != 1 {
			t.Errorf("coordinator stage %q appears %d times, want 1", stage, byName[stage])
		}
	}
	for _, name := range []string{"volume", "encode", "fetch"} {
		if byName[name] != 4 {
			t.Errorf("%s spans = %d, want 4", name, byName[name])
		}
	}
	if len(encodes) != 4 || len(fetches) != 4 {
		t.Errorf("encode spans grafted for volumes %v, fetch spans for volumes %v; want each of the 4", encodes, fetches)
	}
	if len(workersSeen) < 2 {
		t.Errorf("trace carries spans from %d worker(s), want >= 2: %v", len(workersSeen), workersSeen)
	}
	if len(enginesGrafted) < 2 {
		t.Errorf("engine stages grafted from %d worker(s), want >= 2: %v", len(enginesGrafted), enginesGrafted)
	}

	// The service's request span holds the whole scatter-gather; the
	// workers' own request spans are grafted with a worker attribute.
	if request == nil {
		t.Fatal("clustered job has no request span of its own")
	}
	reqEnd := request.Start.Add(request.Duration)
	for _, sp := range spans {
		switch sp.Name {
		case "partition", "scatter", "volume", "fetch", "gather":
			if sp.Start.Before(request.Start) || sp.Start.Add(sp.Duration).After(reqEnd) {
				t.Errorf("%s span [%v +%v] outside the request span [%v +%v]",
					sp.Name, sp.Start, sp.Duration, request.Start, request.Duration)
			}
		}
	}
}
