// Package telemetry is the repo's unified observability layer: a
// zero-dependency metrics registry with exact Prometheus text
// exposition (counters, gauges, callback-backed metrics and
// fixed-bucket histograms), a parser for that same text format (so
// tests consume exactly what the daemons expose), and
// a lightweight per-job span tracer with context propagation (trace.go)
// that follows one comparison across the coordinator→worker scatter.
//
// The source paper's whole contribution is a per-stage wall-time
// breakdown measured offline; this package makes the same breakdown
// observable on every production request. Both daemons serve a
// Registry on /metrics, the pipeline records per-shard step1/2/3
// spans into the request's Trace, and the cluster coordinator stitches
// worker traces into its own so cross-node tail latency has a per-
// volume, per-stage attribution.
package telemetry

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus metric type announced on the TYPE line.
type MetricType string

// Metric types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name="value" pair attached to a metric instance.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). All methods are safe for
// concurrent use. Metric and label names are validated on
// registration; invalid names panic — they are programmer errors, and
// failing at registration keeps the exposition exactly parseable.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	included []*Registry // rendered after r's own families (Include)
}

// family is every metric sharing one name (differing only in labels).
type family struct {
	name string
	help string
	typ  MetricType
	mets map[string]renderable // label signature → metric
}

// renderable is the exposition hook every metric kind implements.
type renderable interface {
	render(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName reports whether s is a legal label name (colons are
// reserved for metric names).
func validLabelName(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// labelValueEscaper and helpEscaper escape label values and HELP text
// per the exposition format.
var (
	labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper       = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// labelString renders a sorted, escaped {a="b",c="d"} block ("" when
// no labels). Sorting makes the signature canonical, so the same label
// set always resolves to the same metric instance.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, labelValueEscaper.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the family and the labeled slot, running
// make() under the registry lock when the slot is new. Re-registering
// the same (name, labels) returns the existing metric; re-registering
// a name under a different type panics — one name must render under
// one TYPE line or the exposition is unparseable.
func (r *Registry) lookup(name, help string, typ MetricType, labels []Label, mk func() renderable) renderable {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	sig := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, mets: make(map[string]renderable)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	m := f.mets[sig]
	if m == nil {
		m = mk()
		f.mets[sig] = m
	}
	return m
}

// Counter is a monotonically increasing float64.
type Counter struct{ bits atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.bits.add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.bits.add(v)
	}
}

func (c *Counter) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.bits.load()))
}

// Counter finds or creates a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, TypeCounter, labels, func() renderable { return &Counter{} }).(*Counter)
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.store(v) }

func (g *Gauge) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.bits.load()))
}

// Gauge finds or creates a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, TypeGauge, labels, func() renderable { return &Gauge{} }).(*Gauge)
}

// funcMetric reads its value from a callback at scrape time — the
// bridge for counters that already live elsewhere (the service's
// MetricsSnapshot) so migrating onto the registry does not mean
// double-counting.
type funcMetric struct{ fn func() float64 }

func (f *funcMetric) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f.fn()))
}

// Func registers a callback-backed metric of the given type. The
// callback runs at every scrape and must be safe for concurrent use.
func (r *Registry) Func(name, help string, typ MetricType, fn func() float64, labels ...Label) {
	r.lookup(name, help, typ, labels, func() renderable { return &funcMetric{fn: fn} })
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; the +Inf bucket is implicit. Observe is
// lock-free (atomics), so hot paths — one observation per pipeline
// shard per stage — never contend on a registry lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound; +Inf derived from total
	total  atomic.Uint64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative in the exposition but stored sparse here:
	// count only the first bucket the value fits, accumulate on render.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.total.Add(1)
	h.sum.add(v)
}

func (h *Histogram) render(w io.Writer, name, labels string) {
	// The _bucket series carries an extra le label; splice it into any
	// existing label block.
	leLabels := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`%s,le="%s"}`, strings.TrimSuffix(labels, "}"), le)
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, leLabels(formatFloat(b)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, leLabels("+Inf"), h.total.Load())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.sum.load()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.total.Load())
}

// Histogram finds or creates a histogram with the given bucket upper
// bounds (ascending, deduplicated; +Inf implicit). An empty bounds
// slice panics — a histogram with only +Inf is a counter in disguise.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly ascending", name))
		}
	}
	return r.lookup(name, help, TypeHistogram, labels, func() renderable {
		return &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)),
		}
	}).(*Histogram)
}

// ExpBuckets returns n upper bounds growing geometrically from start
// by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default latency bucket layout: 100 µs to
// ~105 s in ×2 steps (21 buckets), wide enough for a cold index build
// and fine enough that p50/p99 of a sub-millisecond stage resolve.
var DurationBuckets = ExpBuckets(100e-6, 2, 21)

// Include makes r render other's families after its own, so a daemon
// whose components each own their instruments still serves them all
// from one registry. Family names must not overlap.
func (r *Registry) Include(other *Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.included = append(r.included, other)
}

// WriteTo renders every family sorted by name: HELP and TYPE lines
// first, then each labeled series sorted by label signature, then the
// included registries. Registration order never shows, so a page is
// the same however its instruments came to be registered.
// The output parses under telemetrytest.ParseText — the registry and
// the parser are tested against each other.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	r.writeTo(cw)
	return cw.n, cw.err
}

func (r *Registry) writeTo(cw *countingWriter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range slices.Sorted(maps.Keys(r.fams)) {
		f := r.fams[name]
		if f.help != "" {
			fmt.Fprintf(cw, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		}
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		for _, sig := range slices.Sorted(maps.Keys(f.mets)) {
			f.mets[sig].render(cw, f.name, sig)
		}
	}
	for _, inc := range r.included {
		inc.writeTo(cw)
	}
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trip representation, Inf as +Inf/-Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// atomicFloat is a float64 with atomic load/store/add.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }
func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}
