package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceHeader is the HTTP header the cluster coordinator propagates a
// trace ID under when scattering volume jobs onto workers; a worker
// that sees it stamps the submitted job with the caller's trace ID, so
// the spans it records are correlatable with the coordinator's when
// the trace is gathered.
const TraceHeader = "Seedblast-Trace-Id"

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Span is one finished, named, timed unit of work inside a trace.
type Span struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Attr returns the value of the named attribute ("" when absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace collects the spans of one job under one trace ID. It is safe
// for concurrent use — pipeline stages record spans from several
// goroutines at once. Spans are append-only; Spans() snapshots them
// sorted by start time, so a trace can be served over the job API
// while the job is still running.
type Trace struct {
	id    string
	begun time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace returns an empty trace with the given ID (NewTraceID for a
// fresh one).
func NewTrace(id string) *Trace {
	return &Trace{id: id, begun: time.Now()}
}

// NewTraceID returns a 16-hex-char random trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero ID
		// beats a panic in a telemetry path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Record appends one finished span: call sites hold the start time
// and measure the duration themselves (the pipeline's stage timings).
func (t *Trace) Record(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Duration: d, Attrs: attrs})
	t.mu.Unlock()
}

// Graft appends spans recorded elsewhere (a worker's trace fetched at
// gather), adding the given attributes to every one — the coordinator
// stamps worker= and volume= so cross-node spans stay attributable.
func (t *Trace) Graft(spans []Span, attrs ...Attr) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		s.Attrs = append(append([]Attr(nil), s.Attrs...), attrs...)
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Spans returns a snapshot of the recorded spans sorted by start time
// (ties keep recording order).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// ContextWithTrace returns ctx carrying the trace. The pipeline, the
// service and the coordinator all discover the current job's trace
// this way, so one context value follows the request through every
// layer.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFromContext returns the context's trace, or nil — every
// recording entry point tolerates a nil trace, so instrumented code
// needs no "is tracing on" branches.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// SpanJSON is a span's wire form on the GET /v1/jobs/{id}/trace
// endpoint.
type SpanJSON struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"durationMS"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceJSON is a trace's wire form. Span start times are absolute
// host clocks; across nodes they are comparable only up to clock
// skew — durations are always exact.
type TraceJSON struct {
	TraceID string     `json:"traceId"`
	Spans   []SpanJSON `json:"spans"`
}

// JSON renders the trace's current snapshot in wire form. A nil trace
// renders as an empty trace, so serving a job with no trace is safe.
func (t *Trace) JSON() *TraceJSON {
	out := &TraceJSON{TraceID: t.ID(), Spans: []SpanJSON{}}
	for _, s := range t.Spans() {
		sj := SpanJSON{
			Name:       s.Name,
			Start:      s.Start,
			DurationMS: float64(s.Duration.Nanoseconds()) / 1e6,
		}
		if len(s.Attrs) > 0 {
			sj.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				sj.Attrs[a.Key] = a.Value
			}
		}
		out.Spans = append(out.Spans, sj)
	}
	return out
}

// SpansFromJSON converts wire spans back into Span values — the
// coordinator grafts a fetched worker trace this way.
func SpansFromJSON(spans []SpanJSON) []Span {
	out := make([]Span, 0, len(spans))
	for _, sj := range spans {
		s := Span{
			Name:     sj.Name,
			Start:    sj.Start,
			Duration: time.Duration(sj.DurationMS * 1e6),
		}
		for _, k := range slices.Sorted(maps.Keys(sj.Attrs)) {
			s.Attrs = append(s.Attrs, Attr{Key: k, Value: sj.Attrs[k]})
		}
		out = append(out, s)
	}
	return out
}
