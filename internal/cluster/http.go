package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"seedblast/internal/service"
	"seedblast/internal/telemetry"
)

// ServerConfig tunes the coordinator daemon's job store.
type ServerConfig struct {
	// MaxJobsRetained caps finished jobs kept pollable. Zero or
	// negative means 256.
	MaxJobsRetained int
	// JobTTL expires finished jobs by age, like the worker daemon's.
	// Zero means 15 minutes; negative disables.
	JobTTL time.Duration
	// MaxQueued caps jobs accepted but not yet finished (each pins its
	// banks and fans out onto every worker). Submissions beyond it get
	// 503. Zero means 1024; negative disables.
	MaxQueued int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 256
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 1024
	}
	return c
}

// Server fronts a Coordinator with the same submit/poll/fetch/cancel
// job API the workers speak, so a client cannot tell a coordinator
// from a single worker — except for the coordinator's own families on
// /metrics and the scatter-gather fan-out behind every job.
type Server struct {
	coord     *Coordinator
	store     *service.JobStore[*clusterJob]
	maxQueued int

	mu      sync.Mutex
	seq     int
	pending int // jobs accepted but not finished
}

// clusterJob is one asynchronous scatter-gather comparison.
type clusterJob struct {
	id     string
	mode   string
	trace  *telemetry.Trace
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     service.JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	report    *Report
	err       error
}

// Done and FinishedAt satisfy service.JobStoreEntry, so the cluster
// daemon shares the worker daemon's eviction policy and store.
func (j *clusterJob) Done() <-chan struct{} { return j.done }

func (j *clusterJob) FinishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// NewServer returns a coordinator daemon front end. Its job store
// sweeps expired jobs in the background like the worker daemon's;
// call Close on shutdown to stop the sweeper.
func NewServer(coord *Coordinator, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		coord:     coord,
		store:     service.NewJobStore[*clusterJob](cfg.MaxJobsRetained, cfg.JobTTL),
		maxQueued: cfg.MaxQueued,
	}
	s.store.StartSweeper(service.DefaultSweepInterval(cfg.JobTTL))
	return s
}

// Close stops the server's background job-store sweeper.
func (s *Server) Close() { s.store.StopSweeper() }

// NewHandler returns the daemon's HTTP API:
//
//	POST   /v1/jobs                 submit a comparison; returns {"id": ...}
//	GET    /v1/jobs                 list job summaries
//	GET    /v1/jobs/{id}            one job's status (?wait=30s: held until
//	                                the job ends, as on workers)
//	DELETE /v1/jobs/{id}            cancel a job (propagates to workers)
//	GET    /v1/jobs/{id}/alignments fetch a finished job's merged alignments
//	                                (?stream=1: chunked NDJSON, as on workers)
//	GET    /v1/jobs/{id}/trace      the job's span trace: coordinator
//	                                partition/scatter/gather spans plus
//	                                every worker's per-shard stage spans,
//	                                grafted at gather under one trace ID
//	GET    /metrics                 Prometheus text exposition (the
//	                                coordinator registry, per-worker
//	                                volume-latency histograms included)
//	GET    /healthz                 liveness probe
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/alignments", s.alignments)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	mux.Handle("GET /metrics", s.coord.Registry().Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	// Bounded here too, so that the server closes the connection after
	// answering a body over the limit.
	body, err := service.DecodeJobRequest(http.MaxBytesReader(w, r.Body, service.MaxRequestBytes))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(body.Query) == 0 {
		service.WriteError(w, http.StatusBadRequest, "request needs a query bank")
		return
	}
	if body.Genome != "" {
		// Genome mode partitions the genome, not a sequence list; the
		// cluster layer does not implement that cut yet.
		service.WriteError(w, http.StatusBadRequest, "cluster serves bank-vs-bank jobs; submit genome jobs to a worker directly")
		return
	}
	if len(body.Subject) == 0 {
		service.WriteError(w, http.StatusBadRequest, "request needs a subject bank")
		return
	}
	if body.Options.SearchSpace != nil {
		service.WriteError(w, http.StatusBadRequest, "searchSpace is set by the coordinator; submit without it")
		return
	}

	// The request trace: coordinator spans and, grafted at gather,
	// every worker's spans — all under one trace ID, taken from the
	// submitter's header when present (a client correlating its own
	// telemetry with the cluster's).
	tid := r.Header.Get(telemetry.TraceHeader)
	if tid == "" {
		tid = telemetry.NewTraceID()
	}
	tr := telemetry.NewTrace(tid)
	ctx, cancel := context.WithCancel(telemetry.ContextWithTrace(context.Background(), tr))
	s.mu.Lock()
	if s.maxQueued > 0 && s.pending >= s.maxQueued {
		s.mu.Unlock()
		cancel()
		service.WriteError(w, http.StatusServiceUnavailable, "%d jobs pending, queue full", s.maxQueued)
		return
	}
	s.pending++
	s.seq++
	j := &clusterJob{
		id:        fmt.Sprintf("cjob-%d", s.seq),
		mode:      "bank",
		trace:     tr,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     service.JobQueued,
		submitted: time.Now(),
	}
	// Added under s.mu so concurrent submits land in the store in id
	// order (list ordering and oldest-first eviction rely on it).
	s.store.Add(j.id, j)
	s.mu.Unlock()

	go func() {
		defer cancel()
		j.mu.Lock()
		j.state = service.JobRunning
		j.started = time.Now()
		j.mu.Unlock()
		rep, err := s.coord.Compare(ctx, body.Query, body.Subject, body.Options)
		j.mu.Lock()
		j.finished = time.Now()
		if err != nil {
			j.state = service.JobFailed
			j.err = err
		} else {
			j.state = service.JobDone
			j.report = rep
		}
		j.mu.Unlock()
		close(j.done)
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
		s.store.Prune()
	}()
	service.WriteJSON(w, http.StatusAccepted, map[string]string{
		"id": j.id, "state": string(service.JobQueued), "traceId": tr.ID(),
	})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*clusterJob, bool) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (j *clusterJob) statusJSON() service.JobStatusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := service.JobStatusJSON{
		ID:        j.id,
		State:     string(j.state),
		Mode:      j.mode,
		TraceID:   j.trace.ID(),
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		started := j.started
		st.Started = &started
	}
	if !j.finished.IsZero() {
		finished := j.finished
		st.Finished = &finished
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.report != nil {
		n := len(j.report.Alignments)
		st.Alignments = &n
		hits := j.report.Hits
		st.Hits = &hits
		pairs := j.report.Pairs
		st.Pairs = &pairs
		wall := j.report.WallMS
		st.WallMS = &wall
	}
	return st
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok && service.AwaitJob(w, r, j.done) {
		service.WriteJSON(w, http.StatusOK, j.statusJSON())
	}
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	jobs := s.store.All()
	out := make([]service.JobStatusJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.statusJSON())
	}
	service.WriteJSON(w, http.StatusOK, out)
}

// trace serves the job's stitched span trace: the coordinator's
// partition/scatter/volume/gather spans plus each worker's per-shard
// stage spans (grafted at gather with worker= and volume= attributes),
// all under one trace ID.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		service.WriteJSON(w, http.StatusOK, j.trace.JSON())
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		j.cancel()
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		service.WriteJSON(w, http.StatusOK, map[string]string{"id": j.id, "state": string(state)})
	}
}

func (s *Server) alignments(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, err, rep := j.state, j.err, j.report
	j.mu.Unlock()
	switch state {
	case service.JobFailed:
		service.WriteError(w, http.StatusConflict, "job failed: %v", err)
		return
	case service.JobQueued, service.JobRunning:
		service.WriteError(w, http.StatusConflict, "job is %s; GET /v1/jobs/%s?wait=30s returns when it ends", state, j.id)
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		// Same NDJSON dialect as the workers, so Client.StreamAlignments
		// cannot tell a coordinator from a worker.
		service.WriteNDJSON(w, func(yield func(service.AlignmentJSON) bool) {
			for _, a := range rep.Alignments {
				if !yield(a) {
					return
				}
			}
		})
		return
	}
	aligns := rep.Alignments
	if aligns == nil {
		// A zero-match merge is nil internally; the wire contract is an
		// empty array, exactly as the worker daemon answers.
		aligns = []service.AlignmentJSON{}
	}
	service.WriteJSON(w, http.StatusOK, aligns)
}
