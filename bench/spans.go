package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seedblast/internal/telemetry"
)

// span is one timed interval of the traced pass. Spans of one op share
// its number; Parent names the span that caused this one. Times are
// microseconds since the pass began. Bench-owned spans wrap calls into
// a layer's public functions; spans the program itself recorded (the
// pipeline's per-shard stages, the service's request span, the
// coordinator's partition/scatter/gather) are grafted under the op
// that carried their trace and have Source "program".
type span struct {
	Name    string            `json:"name"`
	Op      int               `json:"op"`
	Parent  string            `json:"parent,omitempty"`
	StartUS float64           `json:"startUS"`
	EndUS   float64           `json:"endUS"`
	Source  string            `json:"source,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps the traced pass's spans in memory until the run ends. A
// nil tracer records nothing, so the untraced window runs the same
// code without it.
type tracer struct {
	begun time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{begun: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.begun).Nanoseconds()) / 1e3 }

// begin opens a span; the returned function closes it and reports how
// long it was open.
func (t *tracer) begin(name, parent string, op int) (end func() time.Duration) {
	start := time.Now()
	return func() time.Duration {
		d := time.Since(start)
		if t != nil {
			t.mu.Lock()
			t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartUS: t.us(start), EndUS: t.us(start.Add(d))})
			t.mu.Unlock()
		}
		return d
	}
}

// graft files the program's own spans under the bench span parent.
func (t *tracer) graft(parent string, op int, spans []telemetry.Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		sp := span{
			Name: s.Name, Op: op, Parent: parent, Source: "program",
			StartUS: t.us(s.Start), EndUS: t.us(s.Start.Add(s.Duration)),
		}
		if len(s.Attrs) > 0 {
			sp.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				sp.Attrs[a.Key] = a.Value
			}
		}
		t.spans = append(t.spans, sp)
	}
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload)), raw, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
