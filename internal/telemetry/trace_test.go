package telemetry

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTraceRecordAndSpans(t *testing.T) {
	tr := NewTrace("abc123")
	if tr.ID() != "abc123" {
		t.Fatalf("ID = %q", tr.ID())
	}
	base := time.Now()
	tr.Record("step2", base.Add(time.Millisecond), 2*time.Millisecond, Int("shard", 1))
	tr.Record("step1", base, time.Millisecond, String("part", "subject"))
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Sorted by start time.
	if spans[0].Name != "step1" || spans[1].Name != "step2" {
		t.Errorf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[1].Attr("shard") != "1" {
		t.Errorf("shard attr = %q", spans[1].Attr("shard"))
	}
	if spans[0].Attr("missing") != "" {
		t.Error("absent attr should be empty")
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if TraceFromContext(ctx) != nil {
		t.Fatal("empty context carries a trace")
	}
	// Recording on a trace-free context is a no-op.
	TraceFromContext(ctx).Record("noop", time.Now(), time.Millisecond)

	tr := NewTrace(NewTraceID())
	ctx = ContextWithTrace(ctx, tr)
	if TraceFromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	start := time.Now()
	time.Sleep(time.Millisecond)
	TraceFromContext(ctx).Record("work", start, time.Since(start), String("k", "v"))
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "work" || spans[0].Duration <= 0 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || a == b {
		t.Errorf("trace ids %q, %q", a, b)
	}
}

func TestGraftAddsAttrs(t *testing.T) {
	worker := NewTrace("same-id")
	worker.Record("step2", time.Now(), time.Millisecond, Int("shard", 0))
	coord := NewTrace("same-id")
	coord.Graft(worker.Spans(), String("worker", "http://w1"), Int("volume", 2))
	spans := coord.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Attr("worker") != "http://w1" || spans[0].Attr("volume") != "2" || spans[0].Attr("shard") != "0" {
		t.Errorf("grafted span attrs = %+v", spans[0].Attrs)
	}
	// Grafting must not alias the source span's attr slice.
	if worker.Spans()[0].Attr("worker") != "" {
		t.Error("graft mutated the source span")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := NewTrace("deadbeefdeadbeef")
	tr.Record("step3", time.Now().Truncate(time.Microsecond), 1500*time.Microsecond, Int("shard", 3))
	buf, err := json.Marshal(tr.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var tj TraceJSON
	if err := json.Unmarshal(buf, &tj); err != nil {
		t.Fatal(err)
	}
	if tj.TraceID != "deadbeefdeadbeef" || len(tj.Spans) != 1 {
		t.Fatalf("round trip = %+v", tj)
	}
	if tj.Spans[0].DurationMS != 1.5 || tj.Spans[0].Attrs["shard"] != "3" {
		t.Errorf("span = %+v", tj.Spans[0])
	}
	back := SpansFromJSON(tj.Spans)
	if len(back) != 1 || back[0].Name != "step3" || back[0].Duration != 1500*time.Microsecond {
		t.Errorf("SpansFromJSON = %+v", back)
	}
	if back[0].Attr("shard") != "3" {
		t.Errorf("attrs lost: %+v", back[0].Attrs)
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Record("x", time.Now(), time.Second)
	tr.Graft([]Span{{Name: "y"}})
	if tr.Spans() != nil {
		t.Error("nil trace returned spans")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(NewTraceID())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record("s", time.Now(), time.Microsecond)
				_ = tr.Spans()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8*500 {
		t.Errorf("got %d spans, want %d", got, 8*500)
	}
}
