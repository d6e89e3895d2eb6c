package cluster

import (
	"time"

	"seedblast/internal/telemetry"
)

// metrics is the coordinator's instrument set on its registry, updated
// in place with atomics: the registry is the one store, and /metrics
// renders it.
type metrics struct {
	requests    *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	retries     *telemetry.Counter
	lastVolumes *telemetry.Gauge
	lastSkew    *telemetry.Gauge
	workers     []workerMetrics // indexed like Config.Workers
}

// workerMetrics is one worker's scatter-gather accounting.
type workerMetrics struct {
	volumes  *telemetry.Counter   // volume jobs completed on this worker
	failures *telemetry.Counter   // volume attempts that failed here (then retried elsewhere)
	latency  *telemetry.Counter   // summed submit→gather latency of completed volumes
	volHist  *telemetry.Histogram // the same latencies, bucketed
}

// newMetrics registers the coordinator's families on r. Registration
// order fixes the exposition order.
func newMetrics(r *telemetry.Registry, urls []string) *metrics {
	m := &metrics{
		requests:    r.Counter("seedclusterd_requests_total", "Cluster comparisons started."),
		completed:   r.Counter("seedclusterd_requests_completed_total", "Cluster comparisons finished successfully."),
		failed:      r.Counter("seedclusterd_requests_failed_total", "Cluster comparisons that errored or were cancelled."),
		retries:     r.Counter("seedclusterd_volume_retries_total", "Volume attempts reissued after a worker failure."),
		lastVolumes: r.Gauge("seedclusterd_last_volumes", "Volumes cut for the most recent request."),
		lastSkew:    r.Gauge("seedclusterd_last_volume_skew", "Max/mean residue ratio of the last partition (1 = balanced)."),
		workers:     make([]workerMetrics, len(urls)),
	}
	for i, u := range urls {
		l := telemetry.L("worker", u)
		m.workers[i] = workerMetrics{
			volumes:  r.Counter("seedclusterd_worker_volumes_total", "Volume jobs completed per worker.", l),
			failures: r.Counter("seedclusterd_worker_failures_total", "Failed volume attempts per worker.", l),
			latency:  r.Counter("seedclusterd_worker_latency_seconds_total", "Summed submit-to-gather volume latency per worker.", l),
			volHist:  r.Histogram("seedclusterd_volume_seconds", "Per-volume submit-to-gather latency.", telemetry.DurationBuckets, l),
		}
	}
	return m
}

// requestStarted counts a request and records its partition's volume
// count and skew — the max/mean residue ratio across volumes. Scatter
// latency is bounded by the slowest volume, so skew is the number to
// watch when picking a partitioning strategy.
func (m *metrics) requestStarted(vols []Volume) {
	var maxR, sum int
	for _, v := range vols {
		sum += v.Residues
		maxR = max(maxR, v.Residues)
	}
	m.requests.Inc()
	m.lastVolumes.Set(float64(len(vols)))
	skew := 0.0
	if len(vols) > 0 && sum > 0 {
		skew = float64(maxR) * float64(len(vols)) / float64(sum)
	}
	m.lastSkew.Set(skew)
}

func (m *metrics) requestDone(err error) {
	if err != nil {
		m.failed.Inc()
	} else {
		m.completed.Inc()
	}
}

func (m *metrics) volumeDone(worker int, latency time.Duration) {
	w := &m.workers[worker]
	w.volumes.Inc()
	w.latency.Add(latency.Seconds())
	w.volHist.Observe(latency.Seconds())
}

func (m *metrics) volumeFailed(worker int, retried bool) {
	m.workers[worker].failures.Inc()
	if retried {
		m.retries.Inc()
	}
}
