package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"seedblast/internal/cluster"
	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

// pollBase is the base interval the bench's clients pass to
// Client.Wait. The client's own default, 25 ms, is ten times a
// serve_hot job: with it the job latency would measure a timer, not
// the service. 1 ms keeps the first polls close to the job's end; Wait
// still backs off and jitters from there as shipped.
const pollBase = time.Millisecond

// daemons is a set of in-process daemons on real loopback TCP: one
// seedservd (serve_hot), or two seedservd workers behind one
// seedclusterd front (cluster_homolog). Configs are the defaults.
type daemons struct {
	url     string // the daemon clients talk to
	workers []*service.Service
	coord   *cluster.Coordinator // nil for a lone seedservd
	stop    []func()
}

func (d *daemons) close() {
	for i := len(d.stop) - 1; i >= 0; i-- {
		d.stop[i]()
	}
}

func (d *daemons) addWorker() string {
	svc := service.New(service.Config{})
	srv := httptest.NewServer(service.NewHandler(svc))
	d.workers = append(d.workers, svc)
	d.stop = append(d.stop, svc.Close, srv.Close)
	return srv.URL
}

func startDaemons(w workload) (*daemons, error) {
	d := &daemons{}
	if w.kind == serving {
		d.url = d.addWorker()
		return d, nil
	}
	urls := []string{d.addWorker(), d.addWorker()}
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		d.close()
		return nil, err
	}
	front := cluster.NewServer(coord, cluster.ServerConfig{})
	srv := httptest.NewServer(cluster.NewHandler(front))
	d.stop = append(d.stop, front.Close, srv.Close)
	d.coord, d.url = coord, srv.URL
	return d, nil
}

// startServing is a serving workload's cold start: daemons, listeners
// and a client. The first job through it misses the index cache.
func startServing(w workload, in *inputs) (*system, error) {
	d, err := startDaemons(w)
	if err != nil {
		return nil, err
	}
	req := jobRequest(in)
	cl := service.NewClient(d.url, service.ClientConfig{})
	return &system{
		op: func(ctx context.Context) (*opResult, error) {
			r, _, err := runJob(ctx, cl, req, nil, 0)
			return r, err
		},
		close: d.close,
	}, nil
}

// jobTimes is what the client saw of one job.
type jobTimes struct {
	id                  string
	submit, wait, fetch time.Duration
	wall                time.Duration
	status              *service.JobStatusJSON
}

// runJob is one serving op as a caller of the job API performs it:
// submit, wait for a terminal state, then fetch and decode every
// alignment. A job is not complete until its alignments are decoded.
func runJob(ctx context.Context, cl *service.Client, req *service.JobRequestJSON, tr *tracer, op int) (*opResult, *jobTimes, error) {
	jt := &jobTimes{}
	whole := tr.begin("job", "", op)
	end := tr.begin("service.submit", "job", op)
	id, err := cl.Submit(ctx, req)
	jt.submit = end()
	if err != nil {
		return nil, nil, err
	}
	jt.id = id

	end = tr.begin("service.wait", "job", op)
	st, err := cl.Wait(ctx, id, pollBase)
	jt.wait = end()
	if err != nil {
		return nil, nil, err
	}
	if st.State != string(service.JobDone) {
		return nil, nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	jt.status = st

	out := &opResult{}
	end = tr.begin("service.fetch", "job", op)
	for a, err := range cl.StreamAlignments(ctx, id) {
		if err != nil {
			return nil, nil, err
		}
		out.aligns = append(out.aligns, a)
	}
	jt.fetch = end()
	jt.wall = whole()
	if st.Alignments == nil || st.Pairs == nil || st.Hits == nil {
		return nil, nil, fmt.Errorf("job %s is done but its status carries no summary", id)
	}
	if *st.Alignments != len(out.aligns) {
		return nil, nil, fmt.Errorf("job %s: status says %d alignments, stream held %d", id, *st.Alignments, len(out.aligns))
	}
	out.pairs, out.hits = *st.Pairs, *st.Hits
	return out, jt, nil
}

// countingTransport counts what crosses the wire for the traced pass:
// requests, request-body bytes and response-body bytes.
type countingTransport struct {
	base                        http.RoundTripper
	requests, bytesOut, bytesIn atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if r.ContentLength > 0 {
		c.bytesOut.Add(r.ContentLength)
	}
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytesIn}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedServing is serve_hot's per-layer pass: sequential jobs, each
// with bench spans around the three client calls, the wire counted,
// and afterwards the job's own trace and status timestamps read back.
func tracedServing(ctx context.Context, cfg config, w workload, in *inputs, budget time.Duration, tr *tracer, obs series) (first *opResult, ops, failed int, err error) {
	d, err := startDaemons(w)
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.close()
	req := jobRequest(in)
	wire := &countingTransport{base: http.DefaultTransport}
	cl := service.NewClient(d.url, service.ClientConfig{HTTPClient: &http.Client{Transport: wire, Timeout: time.Minute}})
	if first, _, err = runJob(ctx, cl, req, nil, 0); err != nil { // the cache miss
		return nil, 0, 0, err
	}
	want := first.digest()
	cacheBefore := d.workers[0].Metrics().Cache

	torn := 0
	start := time.Now()
	for op := 0; op < cfg.minJobs || time.Since(start) < budget; op++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		reqs, out, inb := wire.requests.Load(), wire.bytesOut.Load(), wire.bytesIn.Load()
		got, jt, err := runJob(ctx, cl, req, tr, op)
		ops++
		if err != nil {
			return nil, 0, 0, err
		}
		if got.digest() != want {
			failed++
		}
		obs.add("service.submit_ms", ms(jt.submit))
		obs.add("service.wait_ms", ms(jt.wait))
		obs.add("service.fetch_ms", ms(jt.fetch))
		// Every request of a job is the submit, the fetch or a poll.
		obs.add("service.polls_per_job", float64(wire.requests.Load()-reqs-2))
		obs.add("service.request_bytes", float64(wire.bytesOut.Load()-out))
		obs.add("service.response_bytes", float64(wire.bytesIn.Load()-inb))

		// GET /v1/jobs/{id} reads the job's timestamps and its state
		// under separate lock acquisitions, so a status can say "done"
		// with no finished time. Count it and drop the sample.
		st := jt.status
		if st.Started == nil || st.Finished == nil {
			torn++
			continue
		}
		run := st.Finished.Sub(*st.Started)
		obs.add("service.queue_ms", ms(st.Started.Sub(st.Submitted)))
		obs.add("service.run_ms", ms(run))
		obs.add("service.client_overhead_ms", ms(jt.wall-st.Finished.Sub(st.Submitted)))

		tj, err := cl.Trace(ctx, jt.id)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("trace of %s: %w", jt.id, err)
		}
		spans := telemetry.SpansFromJSON(tj.Spans)
		tr.graft("service.wait", op, spans)
		byName := make(map[string]time.Duration)
		for _, s := range spans {
			byName[s.Name] += s.Duration
		}
		steps := byName["step1"] + byName["step2"] + byName["step3"]
		obs.add("service.request_span_ms", ms(byName["request"]))
		obs.add("service.step1_span_ms", ms(byName["step1"]))
		obs.add("service.step2_span_ms", ms(byName["step2"]))
		obs.add("service.step3_span_ms", ms(byName["step3"]))
		obs.add("service.unspanned_ms", ms(run-steps))
	}
	cache := d.workers[0].Metrics().Cache
	hits, misses := cache.Hits-cacheBefore.Hits, cache.Misses-cacheBefore.Misses
	obs.add("service.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	obs.add("service.torn_status", float64(torn))
	return first, ops, failed, nil
}

// tracedCluster is cluster_homolog's per-layer pass: jobs straight
// through Coordinator.Compare with a telemetry trace in the context,
// so the coordinator's partition/scatter/volume/gather spans and both
// workers' grafted stage spans land on it.
func tracedCluster(ctx context.Context, cfg config, w workload, in *inputs, budget time.Duration, tr *tracer, obs series) (first *opResult, ops, failed int, err error) {
	d, err := startDaemons(w)
	if err != nil {
		return nil, 0, 0, err
	}
	defer d.close()
	req := jobRequest(in)
	result := func(rep *cluster.Report) *opResult {
		return &opResult{aligns: rep.Alignments, pairs: rep.Pairs, hits: rep.Hits}
	}
	rep, err := d.coord.Compare(ctx, req.Query, req.Subject, req.Options) // both workers' cache misses
	if err != nil {
		return nil, 0, 0, err
	}
	first = result(rep)
	want := first.digest()

	start := time.Now()
	for op := 0; op < cfg.minRounds || time.Since(start) < budget; op++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		trace := telemetry.NewTrace(telemetry.NewTraceID())
		end := tr.begin("cluster.compare", "", op)
		rep, err := d.coord.Compare(telemetry.ContextWithTrace(ctx, trace), req.Query, req.Subject, req.Options)
		wall := end()
		if err != nil {
			return nil, 0, 0, err
		}
		ops++
		if result(rep).digest() != want {
			failed++
		}
		spans := trace.Spans()
		tr.graft("cluster.compare", op, spans)
		for _, s := range spans {
			switch s.Name {
			case "partition", "scatter", "gather":
				obs.add("cluster."+s.Name+"_ms", ms(s.Duration))
			}
		}
		var slowest, total time.Duration
		for _, v := range rep.PerVolume {
			slowest = max(slowest, v.Latency)
			total += v.Latency
		}
		obs.add("cluster.compare_ms", ms(wall)) // numerator of cluster.overhead_ratio
		obs.add("cluster.volume_ms_max", ms(slowest))
		obs.add("cluster.volume_skew", ratio(float64(slowest), float64(total)/float64(len(rep.PerVolume))))
		obs.add("cluster.retries", float64(rep.Retries))
		obs.add("cluster.merged_alignments", float64(len(rep.Alignments)))
	}
	return first, ops, failed, nil
}
