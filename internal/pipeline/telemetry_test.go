package pipeline

import (
	"context"
	"testing"
	"time"

	"seedblast/internal/telemetry"
)

// TestRunRecordsStageSpans pins the engine's trace integration: a run
// with a trace in ctx records one step1/step2/step3 span per shard
// (plus the bank-1 index build), each span's shard attribute resolves,
// and the per-stage span durations sum to the Metrics busy times.
func TestRunRecordsStageSpans(t *testing.T) {
	b0, b1 := testBanks(t, 10)
	req := testRequest(t, b0, b1)
	tr := telemetry.NewTrace(telemetry.NewTraceID())
	ctx := telemetry.ContextWithTrace(context.Background(), tr)

	eng, err := New(Config{ShardSize: 3, InFlight: 2, Step2Workers: 2, Step3Workers: 2}, testBackend())
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantShards := out.Metrics.Shards
	if wantShards < 2 {
		t.Fatalf("want a sharded run, got %d shards", wantShards)
	}

	byStage := map[string][]telemetry.Span{}
	for _, s := range tr.Spans() {
		byStage[s.Name] = append(byStage[s.Name], s)
	}
	// step1: one span per shard index build plus the subject index.
	if got := len(byStage["step1"]); got != wantShards+1 {
		t.Errorf("step1 spans = %d, want %d (shards + bank1)", got, wantShards+1)
	}
	if got := len(byStage["step2"]); got != wantShards {
		t.Errorf("step2 spans = %d, want %d", got, wantShards)
	}
	if got := len(byStage["step3"]); got != wantShards {
		t.Errorf("step3 spans = %d, want %d", got, wantShards)
	}
	// Every step2 span names its backend; shard attrs cover 0..N-1.
	seen := map[string]bool{}
	for _, s := range byStage["step2"] {
		if s.Attr("backend") != "cpu" {
			t.Errorf("step2 span backend = %q, want cpu", s.Attr("backend"))
		}
		seen[s.Attr("shard")] = true
	}
	if len(seen) != wantShards {
		t.Errorf("step2 spans cover %d distinct shards, want %d", len(seen), wantShards)
	}
	// Span durations are the same measurements the Metrics busy times
	// sum, so they must agree exactly per stage.
	sum := func(spans []telemetry.Span) time.Duration {
		var d time.Duration
		for _, s := range spans {
			d += s.Duration
		}
		return d
	}
	if got, want := sum(byStage["step2"]), out.Metrics.Step2.Busy; got != want {
		t.Errorf("step2 span total %v != Metrics.Step2.Busy %v", got, want)
	}
	if got, want := sum(byStage["step3"]), out.Metrics.Step3.Busy; got != want {
		t.Errorf("step3 span total %v != Metrics.Step3.Busy %v", got, want)
	}
	if got, want := sum(byStage["step1"]), out.Metrics.Index.Busy; got != want {
		t.Errorf("step1 span total %v != Metrics.Index.Busy %v", got, want)
	}
}

// TestRunWithoutTraceRecordsNothing: a trace-free context must not
// grow state anywhere (the nil-trace fast path).
func TestRunWithoutTraceRecordsNothing(t *testing.T) {
	b0, b1 := testBanks(t, 4)
	req := testRequest(t, b0, b1)
	out := mustRun(t, Config{}, testBackend(), req)
	if out.Metrics.Shards != 1 {
		t.Fatalf("shards = %d", out.Metrics.Shards)
	}
}

// TestMetricsMergeFoldsMaps is the direct Merge unit test: backend
// shard counts fold per key, additive fields add, and
// MaxBufferedMatches keeps the max — not the sum — because peaks of
// concurrent runs never coexist with each other's totals.
func TestMetricsMergeFoldsMaps(t *testing.T) {
	a := Metrics{
		Shards:           2,
		Wall:             3 * time.Second,
		Index:            StageMetrics{Shards: 2, Busy: time.Second},
		Step2:            StageMetrics{Shards: 2, Busy: 2 * time.Second},
		Step3:            StageMetrics{Shards: 2, Busy: 3 * time.Second},
		Prefilter:        StageMetrics{Shards: 2, Busy: time.Second},
		PrefilterKept:    40,
		PrefilterDropped: 60,
		PrefilterQueries: 8,
		ShardsByBackend: map[string]int{
			"cpu": 2,
		},
		MaxBufferedMatches: 10,
	}
	b := Metrics{
		Shards:           3,
		Wall:             time.Second,
		Index:            StageMetrics{Shards: 3, Busy: time.Second},
		Step2:            StageMetrics{Shards: 3, Busy: time.Second},
		Step3:            StageMetrics{Shards: 3, Busy: time.Second},
		Prefilter:        StageMetrics{Shards: 1, Busy: 2 * time.Second},
		PrefilterKept:    5,
		PrefilterDropped: 15,
		PrefilterQueries: 2,
		ShardsByBackend: map[string]int{
			"cpu":  1,
			"rasc": 2,
		},
		MaxBufferedMatches: 7,
	}
	a.Merge(&b)

	if a.Shards != 5 || a.Wall != 4*time.Second {
		t.Errorf("Shards/Wall = %d/%v", a.Shards, a.Wall)
	}
	if a.Step2.Shards != 5 || a.Step2.Busy != 3*time.Second {
		t.Errorf("Step2 = %+v", a.Step2)
	}
	if a.Prefilter.Shards != 3 || a.Prefilter.Busy != 3*time.Second {
		t.Errorf("Prefilter = %+v", a.Prefilter)
	}
	if a.PrefilterKept != 45 || a.PrefilterDropped != 75 || a.PrefilterQueries != 10 {
		t.Errorf("prefilter counters = %d/%d/%d, want 45/75/10",
			a.PrefilterKept, a.PrefilterDropped, a.PrefilterQueries)
	}
	if a.ShardsByBackend["cpu"] != 3 || a.ShardsByBackend["rasc"] != 2 {
		t.Errorf("ShardsByBackend = %v", a.ShardsByBackend)
	}
	if a.MaxBufferedMatches != 10 {
		t.Errorf("MaxBufferedMatches = %d, want max semantics (10)", a.MaxBufferedMatches)
	}
	// Max semantics the other way around: the larger peak wins even
	// when it arrives from the merged-in run.
	c := Metrics{MaxBufferedMatches: 25}
	a.Merge(&c)
	if a.MaxBufferedMatches != 25 {
		t.Errorf("MaxBufferedMatches after second merge = %d, want 25", a.MaxBufferedMatches)
	}
	// Merging into zero-value maps allocates them.
	var z Metrics
	z.Merge(&b)
	if z.ShardsByBackend["rasc"] != 2 {
		t.Errorf("zero-value merge = %v", z.ShardsByBackend)
	}
}
