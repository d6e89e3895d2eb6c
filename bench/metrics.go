package main

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"seedblast/internal/core"
)

// metricDef declares one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; the smoke test fails when the two
// disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base a later commit may lose
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off on every workload. An op is one Search drained through
// Matches() on library workloads and submit -> wait -> all alignments
// decoded on serving workloads. Failures are not a metric here: every
// run reports ops attempted and failed beside its metrics, and any
// failure fails the run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
}

// perLayer are the traced-pass metrics, named <module>.<metric>.
// Direction is what an optimisation of that layer should do to it;
// work counts that are a property of the inputs are "lower" because
// doing less of that work is how the layer gets cheaper.
var perLayer = []metricDef{
	{Name: "index.build_subject_ms", Unit: "ms", Better: "lower"},
	{Name: "index.subject_entries", Unit: "count", Better: "lower"},
	{Name: "index.build_query_ms", Unit: "ms", Better: "lower"},
	{Name: "index.filter_ms", Unit: "ms", Better: "lower"},
	{Name: "index.fingerprint_ms", Unit: "ms", Better: "lower"},

	{Name: "prefilter.run_ms", Unit: "ms", Better: "lower"},
	{Name: "prefilter.kept_pairs", Unit: "count", Better: "lower"},
	{Name: "prefilter.dropped_pairs", Unit: "count", Better: "higher"},
	{Name: "prefilter.keep_ratio", Unit: "ratio", Better: "lower"},
	{Name: "prefilter.union_cover", Unit: "ratio", Better: "lower"},

	{Name: "ungapped.run_ms", Unit: "ms", Better: "lower"},
	{Name: "ungapped.pairs", Unit: "count", Better: "lower"},
	{Name: "ungapped.hits", Unit: "count", Better: "lower"},
	{Name: "ungapped.ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "ungapped.pass_ratio", Unit: "ratio", Better: "lower"},

	{Name: "gapped.run_ms", Unit: "ms", Better: "lower"},
	{Name: "gapped.hits_in", Unit: "count", Better: "lower"},
	{Name: "gapped.extended", Unit: "count", Better: "lower"},
	{Name: "gapped.dp_cells", Unit: "count", Better: "lower"},
	{Name: "gapped.ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "gapped.alignments", Unit: "count", Better: "higher"},
	{Name: "gapped.useful_ratio", Unit: "ratio", Better: "higher"},

	{Name: "hwsim.host_ms", Unit: "ms", Better: "lower"},
	{Name: "hwsim.host_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "hwsim.sim_step2_ms", Unit: "ms", Better: "lower"},
	{Name: "hwsim.utilization", Unit: "ratio", Better: "higher"},

	{Name: "pipeline.step1_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.prefilter_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.step2_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.step3_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.max_buffered_matches", Unit: "count", Better: "lower"},
	{Name: "pipeline.unattributed_ms", Unit: "ms", Better: "lower"},

	{Name: "core.search_traced_ms", Unit: "ms", Better: "lower"},
	{Name: "core.matches", Unit: "count", Better: "higher"},
	{Name: "core.alloc_mb_per_search", Unit: "MB", Better: "lower"},
	{Name: "core.allocs_per_search", Unit: "count", Better: "lower"},

	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "service.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms", Unit: "ms", Better: "lower"},
	{Name: "service.request_span_ms", Unit: "ms", Better: "lower"},
	{Name: "service.step1_span_ms", Unit: "ms", Better: "lower"},
	{Name: "service.step2_span_ms", Unit: "ms", Better: "lower"},
	{Name: "service.step3_span_ms", Unit: "ms", Better: "lower"},
	{Name: "service.unspanned_ms", Unit: "ms", Better: "lower"},
	{Name: "service.client_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.request_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.torn_status", Unit: "count", Better: "lower"},

	{Name: "cluster.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.scatter_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.volume_ms_max", Unit: "ms", Better: "lower"},
	{Name: "cluster.volume_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.merged_alignments", Unit: "count", Better: "higher"},
	{Name: "cluster.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// measuredOn reports whether workload w exercises the layer a
// per-layer metric belongs to. Where it does not, the traced pass
// measures nothing and the result line carries 0 for the metric: the
// layer is bypassed, which is the prediction an optimisation of that
// layer is checked against.
func measuredOn(metric string, w workload) bool {
	module, _, _ := strings.Cut(metric, ".")
	switch {
	case module == "hwsim":
		return w.engine == core.EngineRASC
	case module == "ungapped":
		return w.engine != core.EngineRASC
	case module == "prefilter", metric == "index.filter_ms", metric == "pipeline.prefilter_busy_ms":
		return w.maxCandidates > 0
	case module == "service":
		return w.kind == serving
	case module == "cluster":
		return w.kind == clustered
	case metric == "index.fingerprint_ms":
		return w.kind != library
	}
	return true
}

// sample is one reported metric value with the number of observations
// behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// series collects observations per metric name; the reported value is
// the median.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// medians reduces every collected metric among defs to its sample.
func (s series) medians(defs []metricDef) map[string]sample {
	out := make(map[string]sample)
	for _, d := range defs {
		if vs := s[d.Name]; len(vs) > 0 {
			out[d.Name] = sample{Value: quantile(vs, 0.5), Unit: d.Unit, N: len(vs)}
		}
	}
	return out
}

// quantile returns the q-quantile of vs by linear interpolation
// between order statistics. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
